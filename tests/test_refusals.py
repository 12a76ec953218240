"""Each public constructor either accepts a value or refuses it with a
ValidationError: wrong types, non-finite and huge numbers, bools, strings
and wrong shapes never escape as another exception."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgstress import io, windows
from ppgstress.errors import ValidationError

SPANS = (io.ConditionSpan(0.0, 5.0, io.Condition.RELAXING),
         io.ConditionSpan(5.0, 10.0, io.Condition.STRESSFUL))
TRACE = io.PpgTrace("S01", 100.0, np.zeros(1000), SPANS, (io.SudsRating(2.0, 50),))

# Each constructor with keyword arguments it accepts.
VALID = {
    io.PpgTrace: dict(subject_id="S01", fs=100.0, samples=np.zeros(1000),
                      annotations=SPANS, suds=(io.SudsRating(2.0, 50),)),
    io.SudsRating: dict(time_s=2.0, value=50),
    io.ConditionSpan: dict(start_s=0.0, end_s=5.0, condition=io.Condition.RELAXING),
    io.Dataset: dict(traces=(TRACE,)),
    io.SynthCohortSpec: dict(n_subjects=2, fs=100.0, span_s=60.0, relaxed_hr=65.0,
                             stressed_hr=85.0, relaxed_hrv=(40.0, 50.0),
                             stressed_hrv=(15.0, 10.0), noise_sigma=0.02, seed=0),
    windows.WindowSpec: dict(size_s=80.0, step_s=5.0),
    windows.FeatureMatrix: dict(subjects=("a", "b"), labels=np.array([0, 1]),
                                starts=np.zeros(2), X=np.zeros((2, 3)),
                                columns=("f0", "f1", "f2")),
}

# Each replaces one argument; together they hold every kind of value named
# above, and the arrays hold every dtype kind that is not a real number.
HOSTILE = [
    math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, True, False, None,
    "a", "", "100", (), (1.0,), (True, 1.0), ("a", 1.0), (math.nan, 1.0),
    (40.0, 50.0, 60.0), [40.0, 50.0], (TRACE, TRACE), SPANS[::-1],
    np.zeros(0), np.zeros(3), np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 1)),
    np.full(2, np.nan), np.array(["a", "b"]), np.array([True, False]),
    np.zeros(2, dtype=complex), np.array([None, 1.0]), [[1.0], [1.0, 2.0]],
    io.Condition.STRESSFUL, object(),
]


def construct_or_refuse(make, **fields):
    try:
        make(**{**VALID[make], **fields})
    except ValidationError:
        pass
    except Exception as e:  # any other exception fails, naming the arguments
        pytest.fail(f"{make.__name__} with {fields!r} raised {e!r}")


@pytest.mark.parametrize("make", list(VALID), ids=lambda make: make.__name__)
def test_valid_arguments_construct(make):
    make(**VALID[make])


@pytest.mark.parametrize("make", list(VALID), ids=lambda make: make.__name__)
def test_each_hostile_value_constructs_or_refuses(make):
    for name in VALID[make]:
        for value in HOSTILE:
            construct_or_refuse(make, **{name: value})


@pytest.mark.parametrize("make", list(VALID), ids=lambda make: make.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hostile_values_construct_or_refuse(make, data):
    """Several arguments at once, from the list above or any float, int or
    short string."""
    hostile = st.sampled_from(HOSTILE) | st.floats() | st.integers() | st.text(max_size=3)
    fields = data.draw(st.lists(st.sampled_from(list(VALID[make])), min_size=1,
                                unique=True), label="fields")
    construct_or_refuse(make, **{name: data.draw(hostile, label=name) for name in fields})
