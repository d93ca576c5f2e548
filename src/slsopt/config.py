"""Experiment configuration: a flat, sectioned, key = value text format.

Sections are [problem], [direction], [linesearch], [run]. Each is parsed
straight into the objects that declare its keys, [direction] into a
DirectionState and SgrParams, [linesearch] into LineSearchParams and [run]
into optimizer.RunSettings and RunPaths, and each object checks itself when
built. Unknown sections (among them [DEFAULT]) or keys are rejected; every
key has a documented default; serialization writes all keys in a canonical
order with full-precision floats, so parse(serialize) is the identity.
Overrides take "section.key=value" strings and are applied after the file.
"""

from __future__ import annotations

import configparser
import functools
from dataclasses import dataclass, fields

import numpy as np

from . import _store, directions, linesearch, optimizer, problems
from .errors import ConfigError, DomainError, InvalidSpecError

__all__ = [
    "ProblemConfig",
    "RunPaths",
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


@dataclass(frozen=True)
class ProblemConfig:
    """The instance spec of [problem]: generator family, sizes, seed and spectrum.

    Checked when built: kind in PROBLEM_KINDS, N >= 1, n >= 1 and
    seed >= 0; a failing value raises InvalidSpecError. The spectrum is
    checked by build_problem, against N and n.
    """

    kind: str = "least_squares"
    N: int = 100
    n: int = 200
    seed: int = 0
    spectrum: str = "const:1.0"

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise InvalidSpecError(f"kind must be one of {PROBLEM_KINDS}, got {self.kind!r}")
        for name, bound in (("N", 1), ("n", 1), ("seed", 0)):
            value = getattr(self, name)
            if not value >= bound:
                raise InvalidSpecError(f"{name} must be >= {bound}, got {value}")


@dataclass(frozen=True)
class RunPaths:
    """The output paths of [run]: the trace CSV and the optional gap plot."""

    out_csv: str = "trace.csv"
    out_svg: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: each section as the objects its keys are parsed into."""

    problem: ProblemConfig
    direction: directions.DirectionState
    sgr: directions.SgrParams
    linesearch: linesearch.LineSearchParams
    run: optimizer.RunSettings
    paths: RunPaths

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls(**{attr: c() for classes in _SECTIONS.values() for attr, c in classes.items()})


# Each section and the ExperimentConfig fields its keys are parsed into, in
# serialization order: a key belongs to the class that declares it, with that
# class's default.
_SECTIONS = {
    "problem": {"problem": ProblemConfig},
    "direction": {"direction": directions.DirectionState, "sgr": directions.SgrParams},
    "linesearch": {"linesearch": linesearch.LineSearchParams},
    "run": {"run": optimizer.RunSettings, "paths": RunPaths},
}

# section -> key -> (its ExperimentConfig field, the type of its default)
_KEYS = {
    section: {f.name: (attr, type(f.default)) for attr, cls in classes.items() for f in fields(cls)}
    for section, classes in _SECTIONS.items()
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
    # default_section="" names no section a header can hold, so [DEFAULT] is
    # an ordinary section, rejected as unknown, and folds into no other.
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"), strict=True, interpolation=None, default_section=""
    )
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _config_from_raw(raw: dict[str, dict[str, str]]) -> ExperimentConfig:
    """Each section's objects, built from its keys in section order.

    Every key is read before any object is built; each object checks itself,
    and a domain error becomes a ConfigError naming the section.
    """
    for section in raw:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    values = {attr: {} for classes in _SECTIONS.values() for attr in classes}
    for section, items in raw.items():
        for key, raw_value in items.items():
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            attr, target = _KEYS[section][key]
            values[attr][key] = _coerce(section, key, raw_value, target)
    built = {}
    for section, classes in _SECTIONS.items():
        for attr, cls in classes.items():
            try:
                built[attr] = cls(**values[attr])
            except (InvalidSpecError, DomainError) as exc:
                raise ConfigError(f"{section}: {exc}") from exc
    return ExperimentConfig(**built)


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
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    return parse_config(text, overrides=overrides)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key, fixed order, full-precision floats."""
    lines = []
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            lines.append(f"{key} = {_fmt(getattr(getattr(cfg, attr), key))}")
        lines.append("")
    return "\n".join(lines)


def _spectrum_count(parts: list[str], at: int, k_max: int) -> int:
    """The count K in parts[at], or k_max if absent; checked before any array is made."""
    k = int(parts[at]) if len(parts) > at else k_max
    if k > k_max:
        raise ConfigError(f"spectrum count {k} exceeds the rank cap min(N, n)={k_max}")
    return k


def parse_spectrum(text: str, N: int, n: int) -> np.ndarray:
    """Decode a spectrum spec into the singular values of the design matrix.

    Forms: "const:V[:K]", "linear:LO:HI[:K]", "geom:LO:HI[:K]", or an explicit
    comma list "v1,v2,...". K defaults to min(N, n), and a K above it is a
    ConfigError, raised before the values are allocated.
    """
    text = text.strip()
    k_max = min(N, n)
    try:
        if text.startswith("const:"):
            parts = text.split(":")
            value = float(parts[1])
            return np.full(_spectrum_count(parts, 2, k_max), value)
        if text.startswith("linear:") or text.startswith("geom:"):
            parts = text.split(":")
            lo, hi = float(parts[1]), float(parts[2])
            k = _spectrum_count(parts, 3, k_max)
            if text.startswith("linear:"):
                return np.linspace(lo, hi, k)
            return np.geomspace(lo, hi, k)
        return np.array([float(t) for t in text.split(",")])
    except ConfigError:
        raise
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"cannot parse spectrum spec {text!r}") from exc


# The instance build_problem built last, as (key, instance).
_last_built: tuple | None = None


def build_problem(cfg: ExperimentConfig) -> problems.ResidualProblem:
    """The instance of cfg.problem, built once per spec and kept on disk.

    The instance built last is kept under its key, which is exactly what
    the generator receives: kind, N, n, seed and, for least squares, the
    bytes of the parsed spectrum. While the key matches, that instance is
    returned; the generators make its arrays read-only, so callers share it
    safely. A different spec replaces it, and a failed build keeps nothing.

    Behind the kept instance is the instance store (``_store``): a spec a
    process has not kept is read from ``$XDG_CACHE_HOME/slsopt`` (or
    ``~/.cache/slsopt``) when an earlier process built it with the same
    numpy, OpenBLAS, core and generator code, and is built and published
    there otherwise. A read is checked and gives the same floats, known
    constants and read-only flags as a build. An under-parametrized
    least-squares spec warns on every call, by the one warning of
    ``problems.warn_if_under_parametrized``, on every path.
    """
    global _last_built
    p = cfg.problem
    try:
        if p.kind == "least_squares":
            spectrum = parse_spectrum(p.spectrum, p.N, p.n)
            key = (p.kind, p.N, p.n, p.seed, spectrum.tobytes())
            generate = functools.partial(
                problems.gen_interpolating_least_squares, p.N, p.n, p.seed, spectrum
            )
            assemble = functools.partial(problems.planted_least_squares, singular_values=spectrum)
            x_size = p.n
        else:
            # nonconvex: n is used for both factor sizes
            key = (p.kind, p.N, p.n, p.seed)
            generate = functools.partial(problems.gen_nonconvex_interpolating, p.N, p.n, p.n, p.seed)
            assemble = functools.partial(problems.planted_two_factor, p.n, p.n)
            x_size = p.n + p.n * p.n
        last = _last_built  # read once: another thread may replace it
        if last is not None and last[0] == key:
            if p.kind == "least_squares":
                # the warning a build or a store read issues
                problems.warn_if_under_parametrized(p.N, p.n)
            return last[1]
        _last_built = None  # not kept alive through the next build
        problem = _store.fetch(key, ((p.N, p.n), (p.N,), (x_size,)), generate, assemble)
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc
    _last_built = key, problem
    return problem


# The section objects by the names bench/workloads.py and bench/setup_probe.py call.
def build_direction_state(cfg: ExperimentConfig) -> directions.DirectionState:
    return cfg.direction


def build_sgr_params(cfg: ExperimentConfig) -> directions.SgrParams:
    return cfg.sgr


def build_linesearch_params(cfg: ExperimentConfig) -> linesearch.LineSearchParams:
    return cfg.linesearch


def build_run_config(cfg: ExperimentConfig, problem) -> optimizer.RunConfig:
    """The RunConfig of cfg's section objects, passed through, on problem."""
    return optimizer.RunConfig(
        problem=problem, direction=cfg.direction, linesearch=cfg.linesearch, sgr=cfg.sgr, run=cfg.run
    )
