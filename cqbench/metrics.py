"""Names and units of the benchmark's metrics (shared by run, worker, tests)."""

#: (name, unit); end-to-end metrics of an untraced run
END_TO_END = (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def _fn_metrics(module, names):
    return [(f"{module}.{n}.{part}", unit) for n in names
            for part, unit in (("calls", "count"), ("self_s", "s"))]


#: (name, unit); per-layer metrics of a traced run
PER_LAYER = tuple(
    [(f"linalg.eig_hermitian.{d}.{part}", unit)
     for d in ("d2", "d4", "d8", "d16", "d32p")
     for part, unit in (("calls", "count"), ("self_s", "s"))]
    + _fn_metrics("linalg", ("trace_norm", "operator_norm"))
    + _fn_metrics("states", ("entropy", "von_neumann_entropy"))
    + _fn_metrics("channels", ("example_capacities", "user_capacity_cost"))
    + _fn_metrics("lp", ("feasible_point",))
    + [("lp.feasible_point.cells", "count")]
    + _fn_metrics("regions", ("boundary_slice",))
    + [("regions.boundary_slice.probes", "count"),
       ("regions.records", "count")]
    + _fn_metrics("regions", ("max_r1_scan", "thm1_check",
                              "unstructured_3to1_check", "thm2_feasible",
                              "thm3_feasible"))
    + [("regions.max_r1_scan.evaluations", "count")]
    + _fn_metrics("cli", ("main",))
    + [("cli.bytes_written", "B")]
    + _fn_metrics("gfcoset", ("random_nested_code", "random_code_pair",
                              "sum_code", "codeword", "sum_codeword",
                              "enumerate_coset"))
    + [("gfcoset.draw_yield", "ratio")]
    + [(f"mcsim.run_ex1_sim.{t}.{part}", unit) for t in ("t1", "t2")
       for part, unit in (("calls", "count"), ("self_s", "s"))]
    + _fn_metrics("mcsim", ("soft_covering_tv", "selection_probabilities"))
    + [("mcsim.trials", "count"), ("mcsim.bias_retries", "count")]
    + _fn_metrics("tiltlab", ("tilt_state", "closeness",
                              "hayashi_nagaoka_check", "smoothing_residual",
                              "four_user_smoothing_report"))
    + [("config.active_tolerances.calls", "count"),
       ("trace.overhead_s", "s"), ("loc.src", "lines"),
       ("outputs.bytes_changed", "count")])
