"""Reconfiguration: turning the dynamic group into one that reconfigures itself.

A configuration update is two lattice agreements chained end to end. The
first runs over configurations and certifies the next configuration as the
join of everything concurrently proposed. The second runs over histories
and extends the history with that output; its inputs are only
accepted when backed by a first-agreement certificate, so every element of a
certified history is itself a certified configuration. That certificate is
the first agreement's OutputCert object itself, not a copy of it. The
resulting history certificate is broadcast, and adoption drives key
updates, state transfer and installation in the replica core.

Both agreements are pre-seeded with genesis under a distinguished
certificate, which makes every output contain the initial configuration and
lets certificate verification ground out without external trust.
"""

from __future__ import annotations

from .dbla import (
    GENESIS_CERT,
    ClientHub,
    DblaClient,
    DblaStore,
    DynamicObject,
    DynamicReplica,
    InputValue,
    OutputCert,
    verify_output,
)
from .lattice import Config, History
from .simnet import weak_method


def wrap_conf_cert(tc: OutputCert) -> OutputCert:
    """The certificate of the history input {c'}: the output that certified c'."""
    return tc


def make_hist_input_check(conf_obj: DynamicObject, oracle):
    """History-agreement inputs: histories of one configuration, each
    certified by a configuration-agreement OutputCert."""

    def check(value, cert) -> bool:
        if type(value) is not History or len(value.configs) != 1:
            return False
        return verify_output(conf_obj, oracle, value.configs[0], cert)

    return check


class ReconfigGroup:
    """Shared wiring for one reconfigurable object group.

    A history is the group's when the history agreement certified it:
    certifies is the predicate, handed to every object of the group at
    construction, and check_history (genesis, or certifies) is what
    replicas and hubs adopt histories by. Verdicts are cached once, in
    hist_obj's output cache. The group's own conf_obj and hist_obj hold
    certifies weakly, so the group and its objects form no cycle.
    """

    def __init__(self, group: str, genesis: Config, oracle, conf_input_check):
        self.group = group
        self.genesis = genesis
        self.oracle = oracle
        certifies = weak_method(self.certifies)
        self.conf_obj = DynamicObject(
            f"{group}/conf",
            genesis,
            check_value=conf_input_check,
            check_history=certifies,
            genesis_values=[InputValue(genesis, GENESIS_CERT)],
        )
        self.hist_obj = DynamicObject(
            f"{group}/hist",
            genesis,
            check_value=make_hist_input_check(self.conf_obj, oracle),
            check_history=certifies,
            genesis_values=[InputValue(History([genesis]), GENESIS_CERT)],
        )

    def certifies(self, h: History, cert) -> bool:
        """cert is a history-agreement output for h."""
        return verify_output(self.hist_obj, self.oracle, h, cert)

    def check_history(self, h: History, cert) -> bool:
        return self.hist_obj.check_history(h, cert)

    def make_replica(self, roster, extra_stores=()) -> DynamicReplica:
        stores = [DblaStore("conf", self.conf_obj), DblaStore("hist", self.hist_obj), *extra_stores]
        return DynamicReplica(self.group, self.genesis, stores, self.check_history, roster)

    def make_hub(self, roster) -> ClientHub:
        return ClientHub(self.group, self.genesis, self.check_history, roster)


class ReconfigClient:
    """Drives one configuration update through both agreements.

    It owns its two sessions and holds nothing else of the hub: each
    agreement's done callback is a closure over what the next step needs,
    the hub through the history session's weak proxy, so no callback leads
    back to this client while an update is in flight.
    """

    def __init__(self, hub: ClientHub, grp: ReconfigGroup):
        self.conf = DblaClient(hub, grp.conf_obj)
        self.hist = DblaClient(hub, grp.hist_obj)

    def busy(self) -> bool:
        return self.conf.busy() or self.hist.busy()

    def update_config(self, config: Config, cert, done) -> None:
        if self.busy():
            raise RuntimeError("one update_config at a time per client")
        hist = self.hist

        def hist_done(h: History, th: OutputCert) -> None:
            hist.hub.update_history(h, th, done=lambda: done(h, th))

        def conf_done(cprime: Config, tc: OutputCert) -> None:
            hist.propose(History([cprime]), wrap_conf_cert(tc), hist_done)

        self.conf.propose(config, cert, conf_done)
