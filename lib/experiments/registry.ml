type entry = {
  id : string;
  title : string;
  run : ?quick:bool -> Format.formatter -> unit;
}

let wrap compute report ?quick fmt = report fmt (compute ?quick ())

let all =
  [
    {
      id = "E1";
      title = "graceful degradation curve";
      run = wrap E1_degradation.compute E1_degradation.report;
    };
    {
      id = "E2";
      title = "TBWF vs non-gracefully-degrading baselines";
      run = wrap E2_baselines.compute E2_baselines.report;
    };
    {
      id = "E3";
      title = "obstruction-freedom (solo suffixes)";
      run = wrap E3_obstruction.compute E3_obstruction.report;
    };
    {
      id = "E4";
      title = "Ω∆ from atomic registers";
      run = wrap E4_omega_atomic.compute E4_omega_atomic.report;
    };
    {
      id = "E5";
      title = "Ω∆ from abortable registers";
      run = wrap E5_omega_abortable.compute E5_omega_abortable.report;
    };
    {
      id = "E6";
      title = "activity monitor property matrix";
      run = wrap E6_monitor_matrix.compute E6_monitor_matrix.report;
    };
    {
      id = "E7";
      title = "write-efficiency of Ω∆";
      run = wrap E7_write_efficiency.compute E7_write_efficiency.report;
    };
    {
      id = "E8";
      title = "canonical vs non-canonical use of Ω∆";
      run = wrap E8_canonical.compute E8_canonical.report;
    };
    {
      id = "E9";
      title = "flicker resilience";
      run = wrap E9_flicker.compute E9_flicker.report;
    };
    {
      id = "E11";
      title = "design-choice ablations";
      run = wrap E11_ablations.compute E11_ablations.report;
    };
    {
      id = "E12";
      title = "four routes to progress (HLM deque)";
      run = wrap E12_routes.compute E12_routes.report;
    };
    {
      id = "E13";
      title = "◊P vs Ω∆ under partial timeliness";
      run = wrap E13_detectors.compute E13_detectors.report;
    };
    {
      id = "E14";
      title = "eventual timeliness (GST)";
      run = wrap E14_gst.compute E14_gst.report;
    };
    {
      id = "E15";
      title = "schedule-exploration coverage";
      run = wrap E15_exploration.compute E15_exploration.report;
    };
    {
      id = "E16";
      title = "Nemesis degradation matrix";
      run = wrap E16_nemesis.compute E16_nemesis.report;
    };
    {
      id = "E17";
      title = "degradation over message passing";
      run = wrap E17_network.compute E17_network.report;
    };
    {
      id = "E18";
      title = "practically wait-free: stochastic scheduler vs adversary";
      run = wrap E18_stochastic.compute E18_stochastic.report;
    };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun entry -> String.equal entry.id id) all
