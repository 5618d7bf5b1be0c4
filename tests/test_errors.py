import pickle

import pytest

from incpod import cli, errors

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
    errors.LapackUnavailableError("incpod needs LAPACK: undefined symbol"),
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
    # an error raised in the sweep's worker process reaches the caller pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda exc: type(exc).__name__)
def test_cli_exit_code(exc, monkeypatch, capsys):
    # the codes the CLI documents: 2 for a data/format error, 3 for a
    # numerical failure, 4 for a missing LAPACK routine; never a traceback
    # with the usage code 1
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "pod", fail)
    code = cli.main(["pod", "--input", "in", "--output", "out"])
    if isinstance(exc, (errors.FormatError, errors.InvalidInputError)):
        expected = 2, "data error: "
    elif isinstance(exc, errors.LapackUnavailableError):
        expected = 4, "environment error: "
    else:
        expected = 3, "numerical failure: "
    assert (code, capsys.readouterr().err) == (expected[0], f"{expected[1]}{exc}\n")
