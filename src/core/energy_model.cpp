#include "core/energy_model.hpp"

#include <cmath>
#include <stdexcept>

#include "mesh/analysis.hpp"

namespace aspen::core {

AcceleratorReport evaluate_accelerator(const MvmConfig& cfg,
                                       double weight_reuse, int wdm_channels,
                                       const AreaParams& area) {
  phot::check_thermo_optic_config(cfg.thermo);
  if (wdm_channels < 1)
    throw std::invalid_argument("evaluate_accelerator: wdm_channels < 1");
  AcceleratorReport r;
  r.architecture = mesh::to_string(cfg.architecture);
  r.ports = cfg.ports;
  r.wdm_channels = wdm_channels;

  const mesh::MeshLayout layout = mesh::make_layout(cfg.architecture, cfg.ports);
  const auto n = static_cast<double>(cfg.ports);
  const auto k = static_cast<double>(wdm_channels);

  // --- Footprint: two meshes + attenuator column + per-channel IO ------
  const double mesh_area =
      static_cast<double>(layout.mzi_count()) * area.mzi_mm2 +
      static_cast<double>(layout.phase_count() - 2 * layout.mzi_count()) *
          area.phase_shifter_mm2 +
      static_cast<double>(layout.coupler_count() -
                          2 * layout.mzi_count()) *
          area.coupler_mm2;
  r.area_mm2 = 2.0 * mesh_area + n * area.attenuator_mm2 +
               k * (n * area.modulator_mm2 + 2.0 * n * area.photodetector_mm2 +
                    area.laser_mm2);

  // --- Optical path loss ------------------------------------------------
  mesh::PhysicalMesh probe(layout, cfg.errors);
  const double att_il =
      2.0 * cfg.errors.coupler_loss_db + 2.0 * cfg.errors.ps_loss_db;
  r.insertion_loss_db = cfg.modulator.insertion_loss_db +
                        2.0 * probe.nominal_insertion_loss_db() + att_il;

  // --- Static power ------------------------------------------------------
  const double phases =
      2.0 * static_cast<double>(layout.phase_count()) + n;  // + attenuators
  // Heaters at phases uniform in [0, 2 pi) draw the law at phi = pi on
  // average.
  r.weight_holding_w = cfg.weights == WeightTechnology::kThermoOptic
                           ? phases * phot::heater_power_w(phot::kPi, cfg.thermo)
                           : 0.0;
  const double laser_electrical = phot::wall_plug_power_w(k, cfg.laser);
  r.static_power_w = r.weight_holding_w + laser_electrical;

  // --- Programming -------------------------------------------------------
  r.program_energy_j = weight_write_energy_j(cfg, phases);
  r.program_time_s = weight_program_time_s(cfg);

  // --- Per-MVM dynamic cost ----------------------------------------------
  const double t_sym =
      std::max(1.0 / cfg.modulator.rate_hz, 1.0 / cfg.adc.rate_hz);
  r.latency_per_mvm_s = t_sym;
  r.macs_per_mvm = n * n;
  const double e_mod = n * cfg.modulator.energy_per_symbol_j;
  const double e_adc = 2.0 * n * cfg.adc.energy_per_sample_j;
  const double e_laser_sym = laser_electrical * t_sym / k;  // per channel-symbol
  const double e_hold_sym = r.weight_holding_w * t_sym / k;
  const double e_prog_amortized =
      weight_reuse > 0.0 ? r.program_energy_j / weight_reuse : 0.0;
  r.energy_per_mvm_j =
      e_mod + e_adc + e_laser_sym + e_hold_sym + e_prog_amortized;

  // --- Throughput / efficiency -------------------------------------------
  r.throughput_ops_s = 2.0 * r.macs_per_mvm * k / t_sym;
  const double total_power =
      r.static_power_w + (e_mod + e_adc + e_prog_amortized) * k / t_sym;
  r.tops_per_watt =
      total_power > 0.0 ? r.throughput_ops_s / total_power / 1e12 : 0.0;
  return r;
}

WeightEnergyPoint weight_energy_at_reuse(const MvmConfig& cfg, double reuse,
                                         double mvms_per_inference) {
  WeightEnergyPoint p;
  p.reuse = reuse;

  MvmConfig thermo_cfg = cfg;
  thermo_cfg.weights = WeightTechnology::kThermoOptic;
  MvmConfig pcm_cfg = cfg;
  pcm_cfg.weights = WeightTechnology::kPcm;

  const AcceleratorReport thermo = evaluate_accelerator(thermo_cfg, reuse);
  const AcceleratorReport pcm = evaluate_accelerator(pcm_cfg, reuse);
  p.thermo_energy_j = thermo.energy_per_mvm_j * mvms_per_inference;
  p.pcm_energy_j = pcm.energy_per_mvm_j * mvms_per_inference;
  return p;
}

}  // namespace aspen::core
