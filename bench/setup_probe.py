"""Set-up probe: import slsopt, parse a config, build its problem, then exit.

Usage: setup_probe.py SRC_DIR CONFIG run|diagnose

Prints "ready" once the objects the first iteration (run) or the first sample
point (diagnose) needs exist. The parent times process start to that line.
"""

import sys

src, config_path, kind = sys.argv[1:4]
sys.path.insert(0, src)

from slsopt import config as cfgmod  # noqa: E402

cfg = cfgmod.read_config(config_path)
problem = cfgmod.build_problem(cfg)
if kind == "run":
    cfgmod.build_run_config(cfg, problem=problem)
else:
    cfgmod.build_direction_state(cfg)
    cfgmod.build_linesearch_params(cfg)
    cfgmod.build_sgr_params(cfg)
print("ready", flush=True)
