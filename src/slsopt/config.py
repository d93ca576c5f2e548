"""Experiment configuration: a flat, sectioned, key = value text format.

Sections are [problem], [direction], [linesearch], [run]. Unknown sections or
keys are rejected; every key has a documented default; serialization writes
all keys in a canonical order with full-precision floats, so parse(serialize)
is the identity. Overrides take "section.key=value" strings and are applied
after the file.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

import numpy as np

from . import directions, linesearch, optimizer, problems
from .errors import ConfigError, DomainError, InvalidSpecError

__all__ = [
    "ProblemConfig",
    "DirectionConfig",
    "LineSearchConfig",
    "RunSectionConfig",
    "ExperimentConfig",
    "parse_config",
    "read_config",
    "serialize_config",
    "parse_spectrum",
    "build_problem",
    "build_direction_state",
    "build_sgr_params",
    "build_linesearch_params",
    "build_run_config",
]

PROBLEM_KINDS = ("least_squares", "nonconvex")


@dataclass
class ProblemConfig:
    kind: str = "least_squares"
    N: int = 100
    n: int = 200
    seed: int = 0
    spectrum: str = "const:1.0"


@dataclass
class DirectionConfig:
    kind: str = "sgd"
    beta: float = 0.9
    cg_variant: str = "pr+"
    beta_cap: float = 10.0
    epsilon: float = 1e-8
    c1: float = 10.0
    c2: float = 0.1


@dataclass
class LineSearchConfig:
    gamma: float = 0.1
    delta: float = 0.5
    alpha_max: float = 10.0
    alpha0_policy: str = "constant"
    max_backtracks: int = 60


@dataclass
class RunSectionConfig:
    max_iters: int = 1000
    grad_tol: float = 1e-10
    fgap_tol: float = 1e-8
    seed: int = 0
    trace_every: int = 10
    out_csv: str = "trace.csv"
    out_svg: str = ""


@dataclass
class ExperimentConfig:
    problem: ProblemConfig
    direction: DirectionConfig
    linesearch: LineSearchConfig
    run: RunSectionConfig

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls(ProblemConfig(), DirectionConfig(), LineSearchConfig(), RunSectionConfig())


_SECTIONS = {
    "problem": ProblemConfig,
    "direction": DirectionConfig,
    "linesearch": LineSearchConfig,
    "run": RunSectionConfig,
}


def _coerce(section: str, key: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {target_type.__name__}") from exc


def _raw_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"), strict=True, interpolation=None
    )
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _config_from_raw(raw: dict[str, dict[str, str]]) -> ExperimentConfig:
    for section in raw:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    built = {}
    for section, cls in _SECTIONS.items():
        spec = {f.name: f.type for f in fields(cls)}
        defaults = cls()
        values = {}
        for key, raw_value in raw.get(section, {}).items():
            if key not in spec:
                raise ConfigError(f"unknown key {section}.{key}")
            target = type(getattr(defaults, key))
            values[key] = _coerce(section, key, raw_value, target)
        built[section] = cls(**values)
    cfg = ExperimentConfig(**built)
    validate_config(cfg)
    return cfg


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse config text, then apply "section.key=value" override strings."""
    raw = _raw_sections(text)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} is not of the form section.key")
        section, key = dotted.split(".", 1)
        raw.setdefault(section.strip(), {})[key.strip()] = value
    return _config_from_raw(raw)


def read_config(path, overrides=()) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), overrides=overrides)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key, fixed order, full-precision floats."""
    lines = []
    for section, cls in _SECTIONS.items():
        lines.append(f"[{section}]")
        obj = getattr(cfg, section)
        for f in fields(cls):
            lines.append(f"{f.name} = {_fmt(getattr(obj, f.name))}")
        lines.append("")
    return "\n".join(lines)


def validate_config(cfg: ExperimentConfig):
    """Reject a config that no run could use.

    The direction and line-search sections are checked by building their
    domain objects, and the run section by the limit check RunConfig makes
    when it is built; each error becomes a ConfigError naming its section.
    """
    p, r = cfg.problem, cfg.run
    if p.kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {p.kind!r}")
    if p.N < 1:
        raise ConfigError(f"problem.N must be >= 1, got {p.N}")
    if p.n < 1:
        raise ConfigError(f"problem.n must be >= 1, got {p.n}")
    for key, seed in (("problem.seed", p.seed), ("run.seed", r.seed)):
        if seed < 0:
            raise ConfigError(f"{key} must be >= 0, got {seed}")
    for section, build in (
        ("direction", build_direction_state),
        ("direction", build_sgr_params),
        ("linesearch", build_linesearch_params),
    ):
        try:
            build(cfg)
        except (InvalidSpecError, DomainError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    try:
        optimizer.check_run_limits(r.max_iters, r.grad_tol, r.fgap_tol, r.trace_every)
    except ConfigError as exc:
        raise ConfigError(f"run: {exc}") from exc


def _parse_policy(text: str) -> tuple[str, int]:
    if text == "constant":
        return "constant", 1
    if text == "warm_increase":
        return "warm_increase", 1
    if text.startswith("warm_increase:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad warm_increase power in {text!r}") from exc
        return "warm_increase", p
    raise ConfigError(
        f"linesearch.alpha0_policy must be 'constant' or 'warm_increase[:p]', got {text!r}"
    )


def parse_spectrum(text: str, N: int, n: int) -> np.ndarray:
    """Decode a spectrum spec into the singular values of the design matrix.

    Forms: "const:V[:K]", "linear:LO:HI[:K]", "geom:LO:HI[:K]", or an explicit
    comma list "v1,v2,...". K defaults to min(N, n).
    """
    text = text.strip()
    k_default = min(N, n)
    try:
        if text.startswith("const:"):
            parts = text.split(":")
            value = float(parts[1])
            k = int(parts[2]) if len(parts) > 2 else k_default
            return np.full(k, value)
        if text.startswith("linear:") or text.startswith("geom:"):
            parts = text.split(":")
            lo, hi = float(parts[1]), float(parts[2])
            k = int(parts[3]) if len(parts) > 3 else k_default
            if text.startswith("linear:"):
                return np.linspace(lo, hi, k)
            return np.geomspace(lo, hi, k)
        return np.array([float(t) for t in text.split(",")])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"cannot parse spectrum spec {text!r}") from exc


def build_problem(cfg: ExperimentConfig) -> problems.ResidualProblem:
    p = cfg.problem
    try:
        if p.kind == "least_squares":
            spectrum = parse_spectrum(p.spectrum, p.N, p.n)
            return problems.gen_interpolating_least_squares(p.N, p.n, p.seed, spectrum)
        # nonconvex: n is used for both factor sizes
        return problems.gen_nonconvex_interpolating(p.N, p.n, p.n, p.seed)
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc


def build_direction_state(cfg: ExperimentConfig) -> directions.DirectionState:
    d = cfg.direction
    return directions.DirectionState(
        kind=d.kind,
        beta=d.beta,
        cg_variant=d.cg_variant,
        beta_cap=d.beta_cap,
        epsilon=d.epsilon,
    )


def build_sgr_params(cfg: ExperimentConfig) -> directions.SgrParams:
    return directions.SgrParams(c1=cfg.direction.c1, c2=cfg.direction.c2)


def build_linesearch_params(cfg: ExperimentConfig) -> linesearch.LineSearchParams:
    ls = cfg.linesearch
    policy, power = _parse_policy(ls.alpha0_policy)
    return linesearch.LineSearchParams(
        gamma=ls.gamma,
        delta=ls.delta,
        alpha_max=ls.alpha_max,
        alpha0_policy=policy,
        warm_power=power,
        max_backtracks=ls.max_backtracks,
    )


def build_run_config(cfg: ExperimentConfig, problem) -> optimizer.RunConfig:
    r = cfg.run
    return optimizer.RunConfig(
        problem=problem,
        direction=build_direction_state(cfg),
        linesearch=build_linesearch_params(cfg),
        sgr=build_sgr_params(cfg),
        max_iters=r.max_iters,
        grad_tol=r.grad_tol,
        fgap_tol=r.fgap_tol,
        seed=r.seed,
        trace_full_oracle_every=r.trace_every,
    )
