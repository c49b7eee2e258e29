"""Key canonicalization: what must change the digest and what must not.

Every test here is one clause of the invalidation contract in
docs/CACHING.md — a wrong answer in either direction is a cache bug
(stale hits or pointless misses).
"""

from repro.cache import (
    SCHEMA_VERSION,
    SEMANTIC_OPTIONS,
    canonical_network,
    network_digest,
    required_key,
)
from repro.circuits import c17, figure4
from repro.network import Network
from repro.timing import DelayModel


#: the exact-method digest of :func:`pinned_network` at output required 0,
#: as committed caches hold it; any change here orphans every entry
PINNED_EXACT_DIGEST = "94d7a23d22c5b7d3d9461a393645fe282c61467b01b82da8cf35494538e23a75"


def pinned_network():
    """The circuit whose digest is pinned: C17."""
    return c17()


def build_figure4(name="figure4"):
    """Figure 4 with a controllable display name."""
    net = Network(name)
    net.add_input("x1")
    net.add_input("x2")
    net.add_gate("w", "AND", ["x1", "x2"])
    net.add_gate("z", "AND", ["w", "x2"])
    net.set_outputs(["z"])
    return net


class TestStability:
    def test_same_build_same_key(self):
        a = required_key(build_figure4(), "exact", output_required=2.0)
        b = required_key(build_figure4(), "exact", output_required=2.0)
        assert a.digest == b.digest

    def test_name_is_excluded(self):
        a = required_key(build_figure4("alpha"), "exact", output_required=2.0)
        b = required_key(build_figure4("beta"), "exact", output_required=2.0)
        assert a.digest == b.digest

    def test_copy_keys_identically(self):
        net = c17()
        assert (
            required_key(net, "approx1").digest
            == required_key(net.copy(name="other"), "approx1").digest
        )

    def test_scalar_and_map_required_agree(self):
        net = build_figure4()
        a = required_key(net, "exact", output_required=2.0)
        b = required_key(net, "exact", output_required={"z": 2.0})
        assert a.digest == b.digest


class TestSensitivity:
    def test_method_changes_key(self):
        net = build_figure4()
        digests = {
            required_key(net, m, output_required=2.0).digest
            for m in ("topological", "exact", "approx1", "approx2")
        }
        assert len(digests) == 4

    def test_structure_changes_key(self):
        a = required_key(figure4(), "exact", output_required=2.0)
        mutated = Network("figure4")
        mutated.add_input("x1")
        mutated.add_input("x2")
        mutated.add_gate("w", "OR", ["x1", "x2"])  # AND -> OR
        mutated.add_gate("z", "AND", ["w", "x2"])
        mutated.set_outputs(["z"])
        b = required_key(mutated, "exact", output_required=2.0)
        assert a.digest != b.digest

    def test_required_time_changes_key(self):
        net = build_figure4()
        a = required_key(net, "exact", output_required=2.0)
        b = required_key(net, "exact", output_required=3.0)
        assert a.digest != b.digest

    def test_delays_change_key(self):
        net = build_figure4()
        a = required_key(net, "exact", output_required=2.0)
        b = required_key(
            net, "exact", DelayModel(1.0, {"w": 2.0}), output_required=2.0
        )
        assert a.digest != b.digest

    def test_irrelevant_delay_override_keys_identically(self):
        # an override for a node outside the network must not fragment
        # the key space (delays are restricted to the network first)
        net = build_figure4()
        a = required_key(net, "exact", DelayModel(1.0), output_required=2.0)
        b = required_key(
            net,
            "exact",
            DelayModel(1.0, {"not_in_this_network": 7.0}),
            output_required=2.0,
        )
        assert a.digest == b.digest


class TestOptions:
    def test_semantic_option_changes_key(self):
        net = c17()
        base = required_key(net, "approx2", options={"engine": "sat"})
        other = required_key(net, "approx2", options={"engine": "bdd"})
        assert base.digest != other.digest

    def test_unset_defaults_key_like_absent(self):
        net = c17()
        a = required_key(net, "exact", options=None)
        b = required_key(
            net, "exact", options={"max_nodes": None, "reorder": False}
        )
        assert a.digest == b.digest

    def test_transport_options_are_ignored(self):
        net = c17()
        a = required_key(net, "exact", options={})
        b = required_key(net, "exact", options={"cache_dir": "/tmp/x"})
        assert a.digest == b.digest

    def test_backend_is_not_semantic(self):
        # the kernels produce bit-identical rows (the fuzzer's
        # bdd-backend-parity check enforces it), so a result computed
        # under one kernel serves requests for the other
        assert "backend" not in SEMANTIC_OPTIONS
        net = c17()
        a = required_key(net, "exact", options={"backend": "object"})
        b = required_key(net, "exact", options={"backend": "native"})
        c = required_key(net, "exact", options={"backend": None})
        assert a.digest == b.digest == c.digest

    def test_object_digest_is_pinned(self):
        # object-kernel runs always keyed without a backend entry: their
        # committed digest must stay reachable without a schema bump
        key = required_key(pinned_network(), "exact", options={"backend": "object"})
        assert key.digest == PINNED_EXACT_DIGEST

    def test_env_selected_backend_keys_like_explicit(self, monkeypatch):
        # REPRO_BDD_BACKEND chooses the kernel, never the entry
        net = c17()
        monkeypatch.setenv("REPRO_BDD_BACKEND", "object")
        via_env = required_key(net, "exact", options={})
        monkeypatch.delenv("REPRO_BDD_BACKEND", raising=False)
        explicit = required_key(net, "exact", options={"backend": "object"})
        default = required_key(net, "exact", options={})
        assert via_env.digest == explicit.digest == default.digest

    def test_exact_row_counts_is_semantic(self):
        # it widens the exact digest payload, so it must key the entry
        assert "exact_row_counts" in SEMANTIC_OPTIONS
        net = figure4()
        a = required_key(net, "exact", options={})
        b = required_key(net, "exact", options={"exact_row_counts": True})
        assert a.digest != b.digest


class TestCanonicalForm:
    def test_canonical_network_is_name_free(self):
        doc = canonical_network(build_figure4("whatever"))
        assert "whatever" not in repr(doc)
        assert set(doc) == {"inputs", "outputs", "nodes"}

    def test_network_digest_differs_from_required_key(self):
        net = figure4()
        assert network_digest(net) != required_key(net, "exact").digest

    def test_schema_version_is_pinned(self):
        # bumping SCHEMA_VERSION intentionally orphans old entries; this
        # test makes that bump a conscious, reviewed act
        assert SCHEMA_VERSION == 1
