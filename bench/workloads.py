"""Scenario lists for the benchmark's workloads.

A workload's run is a list of scenario dicts fixed by the base seed and
the run length, so two runs with the same arguments run byte-identical
traces.  The shape of each scenario (family, chain length, app, mask and
the parity of its seed) is set by its position in the list; the rest of
each scenario seed comes from the base seed, so different base seeds
change the schedules but not the mix.

Scenarios are built only from the harness's public builders
(``FAMILIES``, ``ATTACKS``) and ``scenario.validate``; nothing here adds
a family to the library.
"""

from __future__ import annotations

import random

from dynbla.harness.attacks import ATTACKS
from dynbla.harness.scenario import FAMILIES, SCHEMA_VERSION, validate
from run import PARTS

# Shapes in one cycle of each workload's list, and the nominal wall time
# of one scenario (run and checks, with the pass's share of set-up) on
# the seed box.  A run of --seconds holds about seconds / COST_S scenarios.
CYCLE = {"gate-mix": 8, "reconfig-chain": 3, "wide-membership": 2, "keychain-reconfig": 4}
COST_S = {"gate-mix": 0.018, "reconfig-chain": 0.55, "wide-membership": 0.55,
          "keychain-reconfig": 0.042}

_GATE = ("dbla-smoke", "reconfig-dbla", "reconfig-maxreg", "ac-quorum-race",
         "ac-pattern", "slow-reader-dbla", "slow-reader-maxreg", "i-still-work-here")
_KEYCHAIN = ("reconfig-dbla", "reconfig-maxreg", "slow-reader-dbla", "slow-reader-maxreg")


def _seeds(seed):
    """Endless even scenario seeds; ``scenarios`` adds the parity."""
    rng = random.Random(seed)
    while True:
        yield 2 * rng.randrange(1 << 30)


def _parity(workload, i):
    """Parity of the i-th scenario seed, fixed by position.

    Families switch shape on seed parity: reconfig-dbla also removes r1 on
    odd seeds, reconfig-maxreg's first write is seed % 4, and
    wide-membership runs maxreg on odd seeds.  Wide-membership alternates
    app by position; the other workloads flip parity every cycle, so each
    shape of a cycle runs on even and odd seeds in turn.  The mix is then
    the same whatever the base seed.
    """
    if workload == "wide-membership":
        return i % 2
    return (i // CYCLE[workload]) % 2


def _build(name, s, mask=0):
    """A gate-shape scenario and its attack verifier (None for families)."""
    if name in ATTACKS:
        builder, verifier = ATTACKS[name]
        return builder(s), verifier
    if name == "ac-pattern":
        return FAMILIES[name](mask, s), None
    return FAMILIES[name](s), None


def wide_membership(s):
    """Ten replicas, ten clients, one update_config join.

    Even seeds run the dbla app with one proposal per client; odd seeds
    run the maxreg app with writes and reads interleaved.  At 7 replicas
    the scheduler's self-time share falls from about 48% to 29%, level
    with canonical encoding, so keep 10.
    """
    genesis = [f"r{i}" for i in range(1, 11)]
    joiner = "r11"
    users = [f"c{i}" for i in range(1, 10)]     # the tenth client, "u", adds r11
    if s % 2 == 0:
        app = {"kind": "dbla"}
        ops = [{"op": "propose", "client": c, "value": [f"v{i}"], "at": i % 4}
               for i, c in enumerate(users)]
    else:
        app = {"kind": "maxreg"}
        ops = [{"op": "write", "client": c, "value": 10 + i, "at": i % 4} if i % 2 == 0
               else {"op": "read", "client": c, "at": i % 4}
               for i, c in enumerate(users)]
    ops.append({"op": "update_config", "client": "u", "add": [joiner],
                "after": "op0:done", "offset": 1})
    return validate({
        "version": SCHEMA_VERSION,
        "name": f"wide-membership-{s}",
        "seed": s,
        "genesis": genesis,
        "extra_replicas": [joiner],
        "clients": users + ["u"],
        "app": app,
        "ops": ops,
    })


def _keychain(scn):
    out = dict(scn)
    out["oracle"] = "keychain"
    return validate(out)


def count(workload, seconds):
    """Scenarios in a run: whole cycles, split evenly into PARTS parts."""
    unit = CYCLE[workload] * PARTS
    return unit * max(1, round(seconds / (COST_S[workload] * unit)))


def scenarios(workload, seed, seconds, part):
    """Part ``part`` of the run's scenario list: (scenario dict, attack
    verifier or None).  Only this part's scenarios are built; the seeds of
    the other parts are drawn and skipped."""
    if workload not in CYCLE:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(CYCLE)}")
    size = count(workload, seconds) // PARTS
    seeds = _seeds(seed)
    out = []
    for i in range((part + 1) * size):
        s = next(seeds) + _parity(workload, i)
        if i < part * size:
            continue
        if workload == "gate-mix":
            # The traffic the acceptance gate and `dynbla sweep` serve, with
            # maxreg reads beside writes, proposals and access-control races.
            # Bodies are small and the pending queue stays near 120 events:
            # canonical encoding and hashing dominate, the scheduler does not.
            # Every ac-pattern mask comes in turn, one per cycle.
            out.append(_build(_GATE[i % 8], s, mask=(i // 8) % 16))
        elif workload == "reconfig-chain":
            # Each reconfiguration multiplies certificate size by about 2.6:
            # encoding deep certificate trees, check_value and verify_output
            # dominate, and offline checks take about an eighth of a run.
            # Content-addressed certificates should show here, barely in gate-mix.
            out.append((FAMILIES["chain"](s, 3 + i % 3), None))
        elif workload == "wide-membership":
            # rb gossip is n^2 and the pending queue reaches about 1270 events,
            # so the O(pending) prefix sum in Simulator._deliver dominates.  A
            # Fenwick sampler should show here and not in gate-mix.
            out.append((wide_membership(s), None))
        else:
            # keychain-reconfig: the gate shapes on the Ed25519 hash-chain
            # backend, the only workload where fscrypto does a large share of
            # the work.  Cached keychain keys should show here and not in any
            # ledger workload; without it fscrypto would go unmeasured.
            scn, verifier = _build(_KEYCHAIN[i % 4], s)
            out.append((_keychain(scn), verifier))
    return out
