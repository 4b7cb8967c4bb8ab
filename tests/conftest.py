import pytest

from bgcsim.bounds import check_compliance, verify_run
from bgcsim.protocol import ProtocolRun


def _run_and_check(params, truth, adversary, adv_rng=None, **kwargs):
    """Execute one run and assert the per-run contract and bound compliance.

    The contract (``bounds.verify_run``) covers exact recovery, honest
    safety and oracle calls that each wipe out at least u workers; the
    bounds cover T, c and kappa, with kappa recomputed from the raw log.
    """
    responder = adversary.instantiate(params, truth, adv_rng)
    run = ProtocolRun(params, truth, responder, **kwargs)
    ghat, metrics, transcript = run.execute()
    breaches = verify_run(params, truth, responder.malicious, ghat, transcript)
    assert not breaches, breaches
    problems = check_compliance(params, metrics, transcript)
    assert not problems, problems
    return ghat, metrics, transcript, responder


@pytest.fixture
def run_and_check():
    return _run_and_check
