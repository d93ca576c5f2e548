"""Fixed-schema CSV serialization of iteration traces.

Columns: k,f_full,grad_full_norm,f_batch,g_batch_norm,d_norm,dTg,alpha0,alpha,
backtracks,sgr_pass,restarted. Floats use repr (shortest round-trip form), so
identical runs serialize to identical bytes and parsing recovers the exact
doubles; absent exact-oracle values serialize as empty fields; booleans as
true/false.
"""

from __future__ import annotations

from .errors import ConfigError
from .optimizer import IterationRecord

__all__ = ["CSV_HEADER", "trace_to_csv", "records_from_csv", "write_trace", "read_trace"]

CSV_HEADER = (
    "k,f_full,grad_full_norm,f_batch,g_batch_norm,d_norm,dTg,"
    "alpha0,alpha,backtracks,sgr_pass,restarted"
)


def trace_to_csv(records) -> str:
    # One f-string per row: a helper call per field costs more than the
    # formatting. float() keeps ints and numpy scalars printing as doubles.
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.k},"
            f"{'' if r.f_full is None else repr(float(r.f_full))},"
            f"{'' if r.grad_full_norm is None else repr(float(r.grad_full_norm))},"
            f"{float(r.f_batch)!r},{float(r.g_batch_norm)!r},{float(r.d_norm)!r},"
            f"{float(r.dTg)!r},{float(r.alpha0)!r},{float(r.alpha)!r},{r.backtracks},"
            f"{'true' if r.sgr_pass else 'false'},{'true' if r.restarted else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _parse_opt(s: str):
    return None if s == "" else float(s)


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"expected true/false, got {s!r}")


_FIELDS = CSV_HEADER.split(",")
_PARSERS = (int, _parse_opt, _parse_opt, float, float, float, float, float, float, int, _parse_bool, _parse_bool)


def _parse_row(ln: str) -> IterationRecord:
    parts = ln.split(",")
    if len(parts) != len(_FIELDS):
        raise ValueError(f"row has {len(parts)} fields, expected {len(_FIELDS)}: {ln!r}")
    values = {}
    for name, parse, text in zip(_FIELDS, _PARSERS, parts):
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return IterationRecord(**values)


def records_from_csv(text: str) -> list[IterationRecord]:
    """Records of a trace; a malformed row raises ConfigError naming its line."""
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln != ""]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ConfigError("trace file does not start with the expected header")
    records = []
    for i, ln in lines[1:]:
        try:
            records.append(_parse_row(ln))
        except ValueError as exc:
            raise ConfigError(f"trace line {i}: {exc}") from None
    return records


def write_trace(path, records):
    with open(path, "w", newline="\n") as fh:
        fh.write(trace_to_csv(records))


def read_trace(path) -> list[IterationRecord]:
    with open(path) as fh:
        return records_from_csv(fh.read())
