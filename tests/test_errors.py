import pickle

import pytest

from incpod import errors

INSTANCES = [
    errors.NotPositiveDefiniteError("pivot 3 is negative", pivot=3),
    errors.RankDeficientError("column 2 collapsed", column=2),
    errors.InvalidInputError("non-finite column"),
    errors.FormatError("bad magic"),
    errors.CorruptStreamError("record cut at byte 120", 120),
    errors.CorruptCheckpointError("CRC mismatch"),
    errors.IntegrationFailureError("step size underflow", t_reached=1.25),
    errors.PreconditionViolationError("gap too small"),
    errors.AmbiguousAlignmentError("orthogonal pair"),
]


def test_every_error_type_is_covered():
    defined = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, Exception)
        and cls.__module__ == errors.__name__
    }
    assert {type(exc) for exc in INSTANCES} == defined


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda exc: type(exc).__name__)
def test_pickle_round_trip(exc):
    # an error raised in the sweep's worker process crosses a pipe
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
