import pytest

from bgcsim.bounds import run_trial


def _run_and_check(params, truth, adversary, rng=None):
    """Execute one run; assert the per-run contract and bound compliance.

    The contract (``bounds.verify_run``) covers exact recovery, honest
    safety and oracle calls that each wipe out at least u workers; the
    bounds cover T, c and kappa.  kappa's exact counters, kept as messages
    are charged, must equal a recount of the log's t >= 1 messages.
    Returns (g_hat, metrics, transcript).
    """
    ghat, metrics, transcript, breaches, violations = run_trial(params, truth, adversary, rng)
    assert not breaches, breaches
    assert not violations, violations
    logged = [m for m in transcript.messages if m.t >= 1]
    recount = (sum(m.symbols for m in logged), sum(m.bits for m in logged))
    assert (transcript.kappa_symbols, transcript.kappa_bits) == recount
    return ghat, metrics, transcript


@pytest.fixture
def run_and_check():
    return _run_and_check
