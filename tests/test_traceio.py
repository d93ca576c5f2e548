import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slsopt.optimizer import IterationRecord
from slsopt.traceio import records_from_csv, trace_to_csv

# Every double but NaN, which no record equals; the edge values are drawn
# often rather than left to chance.
_doubles = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)
_counts = st.integers(0, 10**9)

_records = st.builds(
    IterationRecord,
    k=_counts,
    f_full=st.none() | _doubles,
    grad_full_norm=st.none() | _doubles,
    f_batch=_doubles,
    g_batch_norm=_doubles,
    d_norm=_doubles,
    dTg=_doubles,
    alpha0=_doubles,
    alpha=_doubles,
    backtracks=_counts,
    sgr_pass=st.booleans(),
    restarted=st.booleans(),
)


@given(records=st.lists(_records, max_size=20))
@settings(max_examples=300, deadline=None)
def test_trace_text_round_trips(records):
    text = trace_to_csv(records)
    back = records_from_csv(text)
    assert back == records
    # equality cannot tell -0.0 from 0.0; the text can
    assert trace_to_csv(back) == text


def test_ints_and_numpy_scalars_print_as_doubles():
    fields = dict(f_batch=2.0, g_batch_norm=0.1, d_norm=3.0, dTg=-1.0, alpha0=1.0, alpha=0.5)
    as_floats = IterationRecord(k=0, f_full=1.0, grad_full_norm=None, backtracks=1,
                                sgr_pass=True, restarted=False, **fields)
    as_others = IterationRecord(k=0, f_full=1, grad_full_norm=None, backtracks=1,
                                sgr_pass=np.True_, restarted=np.False_,
                                **{k: (int(v) if v == int(v) else np.float64(v)) for k, v in fields.items()})
    text = trace_to_csv([as_floats])
    assert text.splitlines()[1] == "0,1.0,,2.0,0.1,3.0,-1.0,1.0,0.5,1,true,false"
    assert trace_to_csv([as_others]) == text
