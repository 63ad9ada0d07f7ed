"""Tests for the zero-leakage static analyzer (``repro.analysis``).

Each rule family gets a firing fixture (known-bad snippet) and its
known-good twin, plus suppression (pragma + baseline) and exit-code
coverage.
"""

import json
import textwrap

from repro.analysis import ModuleSources, analyze_source
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
)
from repro.analysis.rules import analyze_paths


SECRET_PARAM = ModuleSources(params={"f": ["secret"]})


def run(source, sources=None, path="fixture/mod.py"):
    return analyze_source(textwrap.dedent(source), path, sources=sources)


def rules_of(findings):
    return sorted(f.rule for f in findings)


class TestSecretBranch:
    def test_fires_on_secret_if(self):
        findings = run("""
            def f(secret):
                if secret > 4:
                    return 1
                return 0
        """, SECRET_PARAM)
        assert rules_of(findings) == ["secret-branch"]

    def test_fires_on_secret_while_and_ifexp(self):
        findings = run("""
            def f(secret):
                while secret:
                    secret -= 1
                return 1 if secret else 0
        """, SECRET_PARAM)
        assert rules_of(findings) == ["secret-branch", "secret-branch"]

    def test_quiet_on_public_branch(self):
        findings = run("""
            def f(secret, n):
                out = secret * 2
                if n > 4:
                    return out
                return out + 1
        """, SECRET_PARAM)
        assert findings == []

    def test_quiet_on_raise_only_guard(self):
        # Abort-on-invalid guards preserve the success path's shape.
        findings = run("""
            def f(secret):
                if secret < 0:
                    raise ValueError("bad")
                return secret * 2
        """, SECRET_PARAM)
        assert findings == []

    def test_quiet_on_none_identity_test(self):
        findings = run("""
            def f(secret):
                if secret is None:
                    return 0
                return 1
        """, SECRET_PARAM)
        assert findings == []

    def test_quiet_on_len_branch(self):
        # LENGTH taint is weak: branching on a length is allowed.
        findings = run("""
            def f(secret):
                if len(secret) != 32:
                    return 0
                return 1
        """, SECRET_PARAM)
        assert findings == []

    def test_taint_flows_through_tuple_unpack(self):
        findings = run("""
            def f(secret):
                a, b = secret, 7
                if a:
                    return b
                return 0
        """, SECRET_PARAM)
        assert rules_of(findings) == ["secret-branch"]

    def test_taint_flows_through_intra_module_call(self):
        findings = run("""
            def helper(secret):
                return secret + 1

            def f(secret):
                derived = helper(secret)
                if derived:
                    return 1
                return 0
        """, ModuleSources(params={"f": ["secret"], "helper": ["secret"]}))
        assert rules_of(findings) == ["secret-branch"]

    def test_loop_carried_taint_is_seen(self):
        findings = run("""
            def f(secret):
                acc = 0
                for _ in range(4):
                    if acc:
                        return 1
                    acc = acc + secret
                return 0
        """, SECRET_PARAM)
        assert rules_of(findings) == ["secret-branch"]

    def test_branch_join_keeps_other_arm_taint(self):
        # Re-assignment in one arm must not erase the fall-through taint.
        findings = run("""
            def f(secret, fresh):
                if secret is None:
                    secret = fresh
                if secret:
                    return 1
                return 0
        """, SECRET_PARAM)
        assert rules_of(findings) == ["secret-branch"]

    def test_container_store_does_not_taint(self):
        findings = run("""
            def f(secret):
                box = {}
                box["k"] = secret
                out = []
                out.append(secret)
                if out:
                    return len(box)
                return 0
        """, SECRET_PARAM)
        assert findings == []


class TestBatchSourceInventory:
    """The batch entry points are declared secret sources in the repo's
    own inventory: a branch on their inputs fires with no override."""

    def test_branch_on_alphas_fires(self):
        findings = run("""
            def gen_dpf_batch(alphas, domain_bits, values=None, rng=None):
                sides = []
                for alpha in alphas:
                    if alpha >> (domain_bits - 1):
                        sides.append("right")
                    else:
                        sides.append("left")
                return sides
        """, path="src/repro/crypto/dpf.py")
        assert rules_of(findings) == ["secret-branch"]

    def test_branch_free_twin_is_quiet(self):
        findings = run("""
            def gen_dpf_batch(alphas, domain_bits, values=None, rng=None):
                return [alpha >> (domain_bits - 1) for alpha in alphas]
        """, path="src/repro/crypto/dpf.py")
        assert findings == []

    def test_branch_on_burst_slots_and_keys_fires(self):
        findings = run("""
            class Pir2ModeClient:
                def queries_for_slots(self, slots):
                    return [b"hi" if slot else b"lo" for slot in slots]
        """, path="src/repro/core/zltp/modes.py")
        assert rules_of(findings) == ["secret-branch"]
        findings = run("""
            class ZltpClient:
                def get_many(self, keys, deadline_seconds=None):
                    while keys[0]:
                        pass
        """, path="src/repro/core/zltp/client.py")
        assert rules_of(findings) == ["secret-branch"]


class TestSecretCompare:
    def test_fires_on_digest_equality(self):
        findings = run("""
            import hashlib

            def f(secret, expected):
                digest = hashlib.blake2b(secret).digest()
                if digest == expected:
                    return 1
                return 0
        """, SECRET_PARAM)
        assert "secret-compare" in rules_of(findings)

    def test_quiet_with_compare_digest(self):
        findings = run("""
            import hashlib
            import hmac

            def f(secret, expected):
                digest = hashlib.blake2b(secret).digest()
                if hmac.compare_digest(digest, expected):
                    return 1
                return 0
        """, SECRET_PARAM)
        assert findings == []

    def test_quiet_on_int_comparison(self):
        # Requires a bytes-like side: plain int equality stays a
        # secret-branch matter, not a compare-timing one.
        findings = run("""
            def f(secret):
                flag = secret == 7
                return flag
        """, SECRET_PARAM)
        assert findings == []


class TestSecretLen:
    def test_fires_on_length_reaching_pack(self):
        findings = run("""
            import struct

            def f(secret):
                n = len(secret)
                return struct.pack("<I", n) + secret
        """, SECRET_PARAM)
        assert rules_of(findings) == ["secret-len"]

    def test_fires_on_length_reaching_encode_frame(self):
        findings = run("""
            def f(secret):
                return encode_frame(bytes(len(secret)))
        """, SECRET_PARAM)
        assert rules_of(findings) == ["secret-len"]

    def test_quiet_on_secret_value_packed(self):
        # Packing a secret *value* into a fixed-width field is the normal
        # query path; only secret-dependent *sizes* are findings.
        findings = run("""
            import struct

            def f(secret):
                return struct.pack("<Q", secret)
        """, SECRET_PARAM)
        assert findings == []

    def test_quiet_on_public_length(self):
        findings = run("""
            import struct

            def f(secret, payload):
                return struct.pack("<I", len(payload)) + payload
        """, SECRET_PARAM)
        assert findings == []


class TestTelemetryLeak:
    def test_fires_on_secret_metric_label(self):
        findings = run("""
            def f(secret, registry):
                registry.counter("lookups").inc(1, key=secret)
        """, SECRET_PARAM)
        assert rules_of(findings) == ["telemetry-leak"]

    def test_fires_on_secret_span_attribute(self):
        findings = run("""
            def f(secret):
                with span("zltp.session.get", slot=secret):
                    return 0
        """, SECRET_PARAM)
        assert rules_of(findings) == ["telemetry-leak"]

    def test_fires_on_secret_derived_length_in_annotate(self):
        # Even the weak LENGTH taint is an observable channel here.
        findings = run("""
            def f(secret, sp):
                sp.annotate(bytes_up=len(secret))
        """, SECRET_PARAM)
        assert rules_of(findings) == ["telemetry-leak"]

    def test_fires_on_secret_log_field(self):
        findings = run("""
            def f(secret, log):
                log.info("served %s", secret)
        """, SECRET_PARAM)
        assert rules_of(findings) == ["telemetry-leak"]

    def test_quiet_on_public_labels_and_values(self):
        findings = run("""
            def f(secret, registry, sp, mode, nbytes):
                registry.counter("queries").inc(1, mode=mode)
                registry.histogram("lat").observe(0.01, mode=mode)
                sp.annotate(bytes_down=nbytes)
                return secret
        """, SECRET_PARAM)
        assert findings == []

    def test_quiet_on_math_log_of_secret(self):
        # ``log`` is not a telemetry method sink: math.log/np.log are
        # arithmetic on the value, not an observable channel.
        findings = run("""
            import math

            def f(secret):
                return math.log(secret + 1)
        """, SECRET_PARAM)
        assert findings == []


class TestGuardWrite:
    def test_fires_on_unlocked_write(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                def bump(self):
                    self.count += 1
        """)
        assert rules_of(findings) == ["guard-write"]

    def test_quiet_on_locked_write(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self.count += 1
        """)
        assert findings == []

    def test_fires_on_unlocked_mutator_call(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: _lock

                def push(self, x):
                    self._items.append(x)
        """)
        assert rules_of(findings) == ["guard-write"]

    def test_item_store_counts_as_a_write(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}  # guarded-by: _lock

                def put(self, k, v):
                    self._items[k] = v
        """)
        assert rules_of(findings) == ["guard-write"]

    def test_item_store_on_owned_attr_fires_owner_write(self):
        findings = run("""
            class Loop:
                def __init__(self):
                    self._conns = {}  # owned-by: _react

                def poke(self):
                    self._conns["x"] = 1

                def _react_add(self):
                    self._conns["y"] = 2
        """)
        assert rules_of(findings) == ["owner-write"]
        assert findings[0].symbol == "Loop.poke"

    def test_wrong_lock_does_not_count(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                def bump(self):
                    with self._other:
                        self.count += 1
        """)
        assert rules_of(findings) == ["guard-write"]

    def test_init_is_exempt_and_globals_checked(self):
        findings = run("""
            import threading

            _lock = threading.Lock()
            _cache = None  # guarded-by: _lock

            def fill():
                global _cache
                _cache = 42
        """)
        assert rules_of(findings) == ["guard-write"]

    def test_global_write_inside_lock_is_quiet(self):
        findings = run("""
            import threading

            _lock = threading.Lock()
            _cache = None  # guarded-by: _lock

            def fill():
                global _cache
                with _lock:
                    _cache = 42
        """)
        assert findings == []


class TestLockShapes:
    """Lock-acquisition shapes: multi-item ``with`` and re-acquisition."""

    def test_multi_item_with_guards_the_write(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()
                    self.count = 0  # guarded-by: _b_lock

                def bump(self):
                    with self._a_lock, self._b_lock:
                        self.count += 1
        """)
        assert findings == []

    def test_multi_item_with_without_the_guard_lock_fires(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()
                    self.count = 0  # guarded-by: _b_lock

                def bump(self):
                    with self._a_lock:
                        self.count += 1
        """)
        assert rules_of(findings) == ["guard-write"]

    def test_nested_with_accumulates_held_locks(self):
        findings = run("""
            import threading

            class Worker:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()
                    self.count = 0  # guarded-by: _b_lock

                def bump(self):
                    with self._a_lock:
                        with self._b_lock:
                            self.count += 1
        """)
        assert findings == []

    def test_nested_reacquisition_is_a_lock_order_finding(self, tmp_path):
        # Intra lockcheck treats the inner ``with`` as satisfied (the
        # lock *is* named), so the deadlock is the whole-program
        # engine's to catch: re-acquiring a non-reentrant Lock
        # self-deadlocks.
        mod = tmp_path / "re.py"
        mod.write_text(textwrap.dedent("""
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        with self._lock:
                            self.count += 1
        """))
        result = analyze_paths([str(mod)])
        rules = [f.rule for f in result.findings]
        assert "lock-order" in rules
        msg = next(f for f in result.findings if f.rule == "lock-order")
        assert "self-deadlock" in msg.message

    def test_nested_reacquisition_of_rlock_is_quiet(self, tmp_path):
        mod = tmp_path / "re_ok.py"
        mod.write_text(textwrap.dedent("""
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        with self._lock:
                            self.count += 1
        """))
        result = analyze_paths([str(mod)])
        assert result.findings == []


class TestWireShape:
    def test_fires_on_adhoc_answer_bytes(self):
        findings = run("""
            class BadModeServer:
                def answer(self, payload):
                    return b"ok:" + payload
        """)
        assert rules_of(findings) == ["wire-shape"]

    def test_quiet_on_fixed_slot_helpers(self):
        findings = run("""
            class GoodModeServer:
                def answer(self, payload):
                    return pack_u64(self._core.answer(payload))

                def answer_batch(self, payloads):
                    return [self.answer(p) for p in payloads]
        """)
        assert findings == []

    def test_assigned_approved_name_is_quiet(self):
        findings = run("""
            class GoodModeServer:
                def answer(self, payload):
                    sealed = seal(self._key, payload)
                    return sealed
        """)
        assert findings == []

    def test_non_mode_server_class_ignored(self):
        findings = run("""
            class Helper:
                def answer(self, payload):
                    return b"free-form" + payload
        """)
        assert findings == []


class TestSuppression:
    BAD = """
        def f(secret):{pragma_def}
            {pragma_above}if secret:{pragma_line}
                return 1
            return 0
    """

    def _case(self, pragma_def="", pragma_above="", pragma_line=""):
        source = textwrap.dedent(self.BAD).format(
            pragma_def=pragma_def,
            pragma_above=pragma_above.rstrip() + "\n    " if pragma_above else "",
            pragma_line=pragma_line,
        )
        return source

    def test_pragma_on_line_suppresses(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(self._case(
            pragma_line="  # lint: allow(secret-branch) — test-only secret"))
        result = analyze_paths([str(path)])
        assert result.findings == []
        assert len(result.suppressed) == 0  # no sources declared → no finding

    def test_pragma_scopes(self, tmp_path):
        # Build a real module file with declared sources via the inline
        # annotation, then check def-line pragma scope.
        source = textwrap.dedent("""
            def f():  # lint: allow(secret-branch) — fixture: value is public here
                secret = b"x"  # taint: secret
                if secret:
                    return 1
                return 0
        """)
        path = tmp_path / "mod.py"
        path.write_text(source)
        result = analyze_paths([str(path)])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["secret-branch"]

    def test_pragma_without_reason_is_invalid(self, tmp_path):
        source = textwrap.dedent("""
            def f():
                secret = b"x"  # taint: secret
                if secret:  # lint: allow(secret-branch)
                    return 1
                return 0
        """)
        path = tmp_path / "mod.py"
        path.write_text(source)
        result = analyze_paths([str(path)])
        # The finding is NOT suppressed and the pragma itself is flagged.
        assert sorted(f.rule for f in result.findings) == \
            ["bad-pragma", "secret-branch"]

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        source = textwrap.dedent("""
            def f():
                secret = b"x"  # taint: secret
                if secret:  # lint: allow(secret-len) — wrong rule on purpose
                    return 1
                return 0
        """)
        path = tmp_path / "mod.py"
        path.write_text(source)
        result = analyze_paths([str(path)])
        assert [f.rule for f in result.findings] == ["secret-branch"]

    def test_baseline_suppresses_with_justification(self, tmp_path):
        source = textwrap.dedent("""
            def f():
                secret = b"x"  # taint: secret
                if secret:
                    return 1
                return 0
        """)
        module = tmp_path / "legacy.py"
        module.write_text(source)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"entries": [{
            "rule": "secret-branch", "path": "legacy.py", "symbol": "f",
            "justification": "fixture: accepted legacy finding",
        }]}))
        result = analyze_paths([str(module)], baseline_path=str(baseline))
        assert result.findings == []
        assert [f.rule for f in result.baselined] == ["secret-branch"]

    def test_baseline_entry_without_justification_is_flagged(self, tmp_path):
        module = tmp_path / "clean.py"
        module.write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"entries": [{
            "rule": "secret-branch", "path": "clean.py", "symbol": "f",
        }]}))
        result = analyze_paths([str(module)], baseline_path=str(baseline))
        assert [f.rule for f in result.findings] == ["bad-baseline"]


class TestCliContract:
    def test_exit_clean(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("def f(x):\n    return x + 1\n")
        assert analysis_main([str(path)]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_findings_and_json(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(textwrap.dedent("""
            import struct

            def f():
                secret = b"x"  # taint: secret
                return struct.pack("<I", len(secret))
        """))
        assert analysis_main(["--json", str(path)]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["unsuppressed"] == 1
        assert payload["findings"][0]["rule"] == "secret-len"

    def test_exit_internal_error(self, tmp_path):
        missing = tmp_path / "nope.py"
        assert analysis_main([str(missing)]) == EXIT_INTERNAL

    def test_parse_error_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        assert analysis_main([str(path)]) == EXIT_FINDINGS


class TestOwnerWrite:
    """The owned-by single-thread ownership rule (reactor state)."""

    def test_fires_on_write_from_non_owning_method(self):
        findings = run("""
            class Reactor:
                def __init__(self):
                    self._conns = {}  # owned-by: _react

                def stop(self):
                    self._conns = {}
        """)
        assert rules_of(findings) == ["owner-write"]
        assert "owned-by: _react" in findings[0].message

    def test_fires_on_mutating_call_from_non_owning_method(self):
        findings = run("""
            class Reactor:
                def __init__(self):
                    self._conns = {}  # owned-by: _react

                def stop(self):
                    self._conns.clear()
        """)
        assert rules_of(findings) == ["owner-write"]

    def test_quiet_inside_owning_method_family(self):
        findings = run("""
            class Reactor:
                def __init__(self):
                    self._conns = {}  # owned-by: _react

                def _react_teardown(self, fd):
                    self._conns.pop(fd, None)

                def _react_loop(self):
                    self._conns = {}
        """)
        assert findings == []

    def test_init_is_exempt(self):
        findings = run("""
            class Reactor:
                def __init__(self):
                    self._conns = {}  # owned-by: _react
                    self._conns.update({})
        """)
        assert findings == []

    def test_reads_are_not_flagged(self):
        findings = run("""
            class Reactor:
                def __init__(self):
                    self._conns = {}  # owned-by: _react

                def active(self):
                    return len(self._conns)
        """)
        assert findings == []

    def test_coexists_with_guarded_by(self):
        findings = run("""
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock
                    self._conns = {}  # owned-by: _react

                def bad(self):
                    self.count += 1
                    self._conns.clear()
        """)
        assert rules_of(findings) == ["guard-write", "owner-write"]
