#pragma once
/// \file table.hpp
/// ASCII table printer for the experiment harness. Every bench binary
/// prints its results through this, so each result row reads directly
/// from `bench_*` stdout.

#include <iosfwd>
#include <string>
#include <vector>

namespace aspen::lina {

/// Column-aligned ASCII table with a title, headers, and formatted cells.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Set the column headers (defines column count).
  void set_header(std::vector<std::string> header);

  /// Append a row of preformatted cells; must match header width.
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with the given precision; integers are
  /// printed without a decimal point.
  [[nodiscard]] static std::string num(double v, int precision = 4);
  /// Scientific notation (for infidelities spanning decades).
  [[nodiscard]] static std::string sci(double v, int precision = 2);

  /// Render with box-drawing separators to the stream.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace aspen::lina
