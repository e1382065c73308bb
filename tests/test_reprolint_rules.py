"""Per-rule unit tests for reprolint: positive and negative fixtures,
suppression comments, scope/exemption handling, and config overrides."""

import textwrap

from repro.analysis import Analyzer, Config, Severity, in_scope, module_name_for
from pathlib import Path


def lint(source, module="repro.net.fixture", config=None):
    analyzer = Analyzer(config=config if config is not None else Config())
    return analyzer.analyze_source(textwrap.dedent(source), module=module)


def rule_ids(findings):
    return [finding.rule for finding in findings]


# -- det-wallclock -------------------------------------------------------------------

def test_wallclock_time_flagged():
    findings = lint("""
        import time
        def stamp():
            return time.time()
    """, module="repro.sim.fixture")
    assert rule_ids(findings) == ["det-wallclock"]


def test_wallclock_datetime_flagged():
    findings = lint("""
        import datetime
        a = datetime.datetime.now()
    """, module="repro.core.fixture")
    assert rule_ids(findings) == ["det-wallclock"]


def test_sim_now_not_flagged():
    assert lint("def f(sim):\n    return sim.now\n") == []


def test_wallclock_out_of_scope_not_flagged():
    assert lint("import time\nt = time.time()\n",
                module="repro.realnet.fixture") == []


# -- det-ambient-random --------------------------------------------------------------

def test_ambient_random_call_flagged():
    findings = lint("import random\nx = random.random()\n")
    assert rule_ids(findings) == ["det-ambient-random"]


def test_ambient_random_import_from_flagged():
    findings = lint("from random import choice, shuffle\n")
    assert rule_ids(findings) == ["det-ambient-random"]


def test_import_of_random_class_ok():
    assert lint("from random import Random\n") == []


def test_stream_draws_not_flagged():
    assert lint("""
        def loss(rng):
            return rng.random() < 0.5
    """) == []


# -- det-seeded-random ---------------------------------------------------------------

def test_unseeded_random_flagged():
    findings = lint("import random\nrng = random.Random()\n")
    assert rule_ids(findings) == ["det-seeded-random"]
    assert "OS entropy" in findings[0].message


def test_literal_seed_flagged_with_location():
    findings = lint("import random\n\nrng = random.Random(0x67F)\n",
                    module="repro.gfw.fixture")
    assert rule_ids(findings) == ["det-seeded-random"]
    assert findings[0].line == 3
    assert "1663" in findings[0].message


def test_derived_seed_construction_flagged():
    findings = lint("""
        import random
        def make(seed):
            return random.Random(seed)
    """)
    assert rule_ids(findings) == ["det-seeded-random"]
    assert "injected rng" in findings[0].message


def test_registry_module_exempt():
    assert lint("import random\nstream = random.Random(derived)\n",
                module="repro.sim.rng") == []


def test_injected_rng_annotation_ok():
    assert lint("""
        import random
        import typing as t
        def f(rng: t.Optional[random.Random] = None):
            return rng
    """) == []


# -- det-urandom ---------------------------------------------------------------------

def test_urandom_flagged_in_middleware():
    findings = lint("import os\niv = os.urandom(16)\n",
                    module="repro.middleware.fixture")
    assert rule_ids(findings) == ["det-urandom"]


def test_urandom_allowed_in_realnet():
    assert lint("import os\niv = os.urandom(16)\n",
                module="repro.realnet.fixture") == []


def test_secrets_and_uuid4_flagged():
    findings = lint("""
        import secrets
        import uuid
        a = secrets.token_bytes(8)
        b = uuid.uuid4()
    """, module="repro.core.fixture")
    assert rule_ids(findings) == ["det-urandom", "det-urandom"]


# -- sim-forbidden-import / sim-blocking-call ----------------------------------------

def test_threading_import_flagged():
    findings = lint("import threading\n", module="repro.sim.fixture")
    assert rule_ids(findings) == ["sim-forbidden-import"]


def test_asyncio_from_import_flagged():
    findings = lint("from asyncio import StreamReader\n",
                    module="repro.http.fixture")
    assert rule_ids(findings) == ["sim-forbidden-import"]


def test_realnet_exempt_from_import_rule():
    assert lint("import asyncio\nimport socket\n",
                module="repro.realnet.fixture") == []


def test_sim_sockets_module_exempt():
    assert lint("import socket\n", module="repro.transport.sockets") == []


def test_relative_import_not_flagged():
    assert lint("from ..transport.sockets import Datagram\n") == []


def test_time_sleep_flagged():
    findings = lint("""
        import time
        def wait():
            time.sleep(1.0)
    """, module="repro.transport.tcp")
    assert "sim-blocking-call" in rule_ids(findings)


def test_socket_call_flagged():
    findings = lint("""
        import socket
        s = socket.create_connection(("h", 80))
    """, module="repro.dns.fixture")
    assert rule_ids(findings) == ["sim-forbidden-import", "sim-blocking-call"]


# -- codec-str-bytes -----------------------------------------------------------------

def test_str_over_bytes_literal_flagged():
    findings = lint('x = str(b"\\x00payload")\n', module="repro.crypto.fixture")
    assert rule_ids(findings) == ["codec-str-bytes"]


def test_str_over_encode_flagged():
    findings = lint('x = str(name.encode())\n', module="repro.net.packet")
    assert rule_ids(findings) == ["codec-str-bytes"]


def test_mixed_concat_flagged():
    findings = lint('frame = "IV:" + b"abc"\n', module="repro.realnet.framing")
    assert rule_ids(findings) == ["codec-str-bytes"]


def test_mixed_comparison_flagged():
    findings = lint('ok = header == "MAGIC" == b"MAGIC"\n',
                    module="repro.core.blinding")
    assert "codec-str-bytes" in rule_ids(findings)


def test_bytes_in_fstring_flagged():
    findings = lint('msg = f"got {b\'raw\'}"\n', module="repro.crypto.fixture")
    assert rule_ids(findings) == ["codec-str-bytes"]


def test_explicit_decode_ok():
    assert lint('x = payload.decode("utf-8")\ny = b"a" + b"b"\n',
                module="repro.crypto.fixture") == []


def test_codec_rule_scoped_to_wire_modules():
    # str(bytes) is sloppy but harmless in, say, report formatting.
    assert lint('x = str(b"abc")\n', module="repro.measure.report") == []


# -- process rules -------------------------------------------------------------------

def test_uninvoked_process_body_flagged():
    findings = lint("""
        def body(sim):
            yield sim.timeout(1.0)
        def start(sim):
            sim.process(body)
    """, module="repro.http.fixture")
    assert rule_ids(findings) == ["process-uninvoked"]


def test_invoked_process_body_ok():
    assert lint("""
        def body(sim):
            yield sim.timeout(1.0)
        def start(sim):
            sim.process(body(sim), name="worker")
    """, module="repro.http.fixture") == []


def test_lambda_process_body_flagged():
    findings = lint("""
        def start(sim):
            sim.process(lambda: None)
    """, module="repro.http.fixture")
    assert rule_ids(findings) == ["process-uninvoked"]


def test_process_yield_literal_flagged():
    findings = lint("""
        def body(sim):
            yield 42
            yield sim.timeout(1.0)
        def start(sim):
            sim.process(body(sim))
    """, module="repro.middleware.fixture")
    assert rule_ids(findings) == ["process-yield-literal"]
    assert "42" in findings[0].message


def test_plain_generator_yielding_literals_ok():
    # An ordinary iterator generator is not a process body.
    assert lint("""
        def chunks():
            yield 1
            yield 2
    """) == []


# -- generator-exit-sends ------------------------------------------------------------

ONLY_GENERATOR_EXIT = Config(enabled=frozenset({"generator-exit-sends"}))


def test_generator_cleanup_without_generator_exit_flagged():
    findings = lint("""
        def open_stream(transport, address):
            conn = yield transport.connect_tcp(address, 443)
            try:
                yield conn.recv_message()
            except BaseException:
                conn.close()
                raise
            try:
                yield conn.recv_message()
            finally:
                conn.close()
    """, module="repro.middleware.fixture", config=ONLY_GENERATOR_EXIT)
    assert rule_ids(findings) == ["generator-exit-sends"] * 2
    assert [finding.line for finding in findings] == [4, 9]
    assert "open_stream" in findings[0].message


def test_generator_cleanup_after_generator_exit_ok():
    # The handlers the middleware uses: finalization returns before the
    # broad handler's close, and a finally checks a flag the
    # ``GeneratorExit`` handler set.  Plain functions and the loopback
    # proxies are out of reach.
    assert lint("""
        def open_stream(transport, address):
            conn = yield transport.connect_tcp(address, 443)
            try:
                yield conn.recv_message()
            except GeneratorExit:
                return None
            except BaseException:
                conn.close()
                raise
            finalized = False
            try:
                yield conn.recv_message()
            except GeneratorExit:
                finalized = True
                raise
            finally:
                if not finalized:
                    conn.close()

        def send_once(conn):
            try:
                conn.send_message(12)
            finally:
                conn.close()
    """, module="repro.middleware.fixture", config=ONLY_GENERATOR_EXIT) == []
    assert lint("""
        def serve(sock):
            try:
                yield sock.recv(1)
            finally:
                sock.close()
    """, module="repro.realnet.fixture", config=ONLY_GENERATOR_EXIT) == []


# -- suppressions --------------------------------------------------------------------

def test_line_suppression_applies_to_that_line_only():
    findings = lint("""
        import random
        a = random.Random(0)  # reprolint: disable=det-seeded-random
        b = random.Random(1)
    """)
    assert len(findings) == 1
    assert findings[0].line == 4


def test_file_suppression_applies_everywhere():
    findings = lint("""
        # reprolint: disable=det-seeded-random
        import random
        a = random.Random(0)
        b = random.Random(1)
    """)
    assert findings == []


def test_disable_all_suppresses_every_rule():
    findings = lint("""
        # reprolint: disable=all
        import threading
        import random
        a = random.Random(0)
    """, module="repro.sim.fixture")
    assert findings == []


def test_suppression_of_other_rule_does_not_leak():
    findings = lint(
        "import random\n"
        "a = random.Random(0)  # reprolint: disable=det-wallclock\n")
    # The seeded-random finding is NOT suppressed by the det-wallclock
    # token, and the token itself — suppressing nothing — is now stale.
    assert sorted(rule_ids(findings)) == [
        "det-seeded-random", "stale-suppression"]


# -- engine: config, scopes, severity ------------------------------------------------

def test_enabled_subset_filters_rules():
    config = Config(enabled=frozenset({"det-wallclock"}))
    findings = lint("import random\nx = random.Random(0)\n", config=config)
    assert findings == []


def test_severity_override_downgrades_to_warning():
    config = Config(severities={"det-seeded-random": Severity.WARNING})
    findings = lint("import random\nx = random.Random(0)\n", config=config)
    assert [f.severity for f in findings] == [Severity.WARNING]


def test_scope_override_widens_rule():
    config = Config(scopes={"det-wallclock": ("repro",)})
    findings = lint("import time\nt = time.time()\n",
                    module="repro.realnet.fixture", config=config)
    assert rule_ids(findings) == ["det-wallclock"]


def test_exempt_paths_skip_files(tmp_path):
    bad = tmp_path / "repro" / "net" / "vendored.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.Random(0)\n")
    flagged = Analyzer(config=Config()).analyze_paths([bad])
    assert rule_ids(flagged) == ["det-seeded-random"]
    exempted = Analyzer(config=Config(exempt_paths=("*/vendored.py",)))
    assert exempted.analyze_paths([bad]) == []


def test_syntax_error_reported_as_finding():
    findings = lint("def broken(:\n")
    assert rule_ids(findings) == ["parse-error"]


def test_module_name_for_paths():
    assert module_name_for(Path("src/repro/net/link.py")) == "repro.net.link"
    assert module_name_for(Path("src/repro/sim/__init__.py")) == "repro.sim"
    assert module_name_for(Path("elsewhere/tool.py")) == "tool"


def test_in_scope_prefix_matching():
    assert in_scope("repro.net.link", ("repro.net",))
    assert not in_scope("repro.network", ("repro.net",))
    assert in_scope("repro.net", ("repro.net",))


def test_findings_are_jsonable_and_sorted():
    findings = lint("""
        import random
        import threading
        b = random.Random(1)
    """, module="repro.sim.fixture")
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    payload = findings[0].to_dict()
    assert set(payload) == {"rule", "severity", "path", "line", "col", "message"}


# -- silent-except -------------------------------------------------------------------

def test_silent_except_pass_flagged():
    findings = lint("""
        def pump():
            try:
                step()
            except Exception:
                pass
    """)
    assert rule_ids(findings) == ["silent-except"]


def test_silent_bare_except_flagged():
    findings = lint("""
        def pump():
            try:
                step()
            except:
                return None
    """)
    assert rule_ids(findings) == ["silent-except"]


def test_silent_except_in_tuple_flagged():
    findings = lint("""
        def pump():
            for item in items:
                try:
                    step(item)
                except (ValueError, Exception):
                    continue
    """)
    assert rule_ids(findings) == ["silent-except"]


def test_narrow_except_not_flagged():
    assert lint("""
        def pump():
            try:
                step()
            except ValueError:
                pass
    """) == []


def test_handled_broad_except_not_flagged():
    assert lint("""
        def pump():
            try:
                step()
            except Exception as exc:
                log(exc)
                raise
    """) == []


def test_silent_except_exempt_in_analysis():
    assert lint("""
        try:
            step()
        except Exception:
            pass
    """, module="repro.analysis.fixture") == []


def test_silent_except_suppression_comment():
    findings = lint("""
        try:
            step()
        except Exception:  # reprolint: disable=silent-except
            pass
    """)
    assert findings == []


# -- unbounded-queue ------------------------------------------------------------


def test_unbounded_growth_in_forever_loop_flagged():
    findings = lint("""
        def pump(queue):
            backlog = []
            while True:
                backlog.append(recv())
    """)
    assert rule_ids(findings) == ["unbounded-queue"]


def test_per_iteration_batch_not_flagged():
    assert lint("""
        def pump(queue):
            while True:
                batch = []
                batch.append(recv())
                flush(batch)
    """) == []


def test_dataclass_list_field_flagged():
    findings = lint("""
        from dataclasses import dataclass, field

        @dataclass
        class FlowState:
            recent: list = field(default_factory=list)
    """)
    assert rule_ids(findings) == ["unbounded-queue"]


def test_dataclass_lambda_list_and_bare_deque_flagged():
    findings = lint("""
        import dataclasses
        from collections import deque
        from dataclasses import field

        @dataclasses.dataclass(frozen=True)
        class FlowState:
            times: object = field(default_factory=lambda: [])
            waiting: object = field(default_factory=deque)
            worst: object = field(default_factory=lambda: deque(maxlen=None))
    """)
    assert rule_ids(findings) == ["unbounded-queue"] * 3


def test_dataclass_bounded_deque_not_flagged():
    assert lint("""
        from collections import deque
        from dataclasses import dataclass, field

        @dataclass
        class FlowState:
            recent: object = field(default_factory=lambda: deque(maxlen=64))
            counts: dict = field(default_factory=dict)
            name: object = field(default_factory=str)
    """) == []


def test_dataclass_field_out_of_scope_not_flagged():
    assert lint("""
        from dataclasses import dataclass, field

        @dataclass
        class Report:
            rows: list = field(default_factory=list)
    """, module="repro.measure.fixture") == []


def test_dataclass_field_suppression_comment():
    assert lint("""
        from dataclasses import dataclass, field

        @dataclass
        class Audit:
            log: list = field(default_factory=list)  # reprolint: disable=unbounded-queue
    """) == []


# -- leak-on-error-path (dataflow) ---------------------------------------------------

def test_leak_on_error_path_flagged():
    findings = lint("""
        class Proxy:
            def serve(self, transport, conn):
                remote = yield transport.connect_tcp("host", 443, timeout=5.0)
                conn.send_message(8, meta=("x",))
                remote.close()
    """, module="repro.core.fixture")
    assert "leak-on-error-path" in rule_ids(findings)
    finding = next(f for f in findings if f.rule == "leak-on-error-path")
    assert "`remote`" in finding.message


def test_leak_released_on_error_path_clean():
    assert lint("""
        class Proxy:
            def serve(self, transport, conn):
                remote = yield transport.connect_tcp("host", 443, timeout=5.0)
                try:
                    conn.send_message(8, meta=("x",))
                except GeneratorExit:
                    return
                except BaseException:
                    remote.close()
                    raise
                remote.close()
    """, module="repro.core.fixture") == []


def test_leak_rule_out_of_scope_not_flagged():
    assert lint("""
        class Harness:
            def serve(self, transport, conn):
                remote = yield transport.connect_tcp("host", 443, timeout=5.0)
                conn.send_message(8, meta=("x",))
    """, module="repro.measure.fixture") == []


def test_leak_suppression_comment_honored():
    assert lint("""
        class Proxy:
            def serve(self, transport, conn):
                remote = yield transport.connect_tcp("host", 443, timeout=5.0)  # reprolint: disable=leak-on-error-path
                conn.send_message(8, meta=("x",))
    """, module="repro.core.fixture") == []


# -- deadline-unclamped (dataflow) ---------------------------------------------------

def test_unclamped_timeout_next_to_deadline_flagged():
    findings = lint("""
        class Hop:
            def forward(self, transport, deadline):
                conn = yield transport.connect_tcp("host", 443, timeout=30.0)
                conn.close()
    """, module="repro.core.fixture")
    assert "deadline-unclamped" in rule_ids(findings)


def test_clamped_timeout_clean():
    assert lint("""
        class Hop:
            def forward(self, transport, sim, deadline):
                budget = deadline.clamp(30.0, sim.now)
                conn = yield transport.connect_tcp("host", 443, timeout=budget)
                conn.close()
    """, module="repro.core.fixture") == []


def test_timeout_none_and_module_constant_clean():
    assert lint("""
        DIAL_TIMEOUT = 30.0

        class Hop:
            def forward_unbounded(self, transport, deadline):
                a = yield transport.connect_tcp("host", 1, timeout=None)
                a.close()

            def forward_constant(self, transport, deadline):
                b = yield transport.connect_tcp("host", 2, timeout=DIAL_TIMEOUT)
                b.close()
    """, module="repro.core.fixture") == []


def test_function_without_deadline_not_checked():
    assert lint("""
        class Hop:
            def forward(self, transport):
                conn = yield transport.connect_tcp("host", 443, timeout=30.0)
                conn.close()
    """, module="repro.core.fixture") == []


# -- rng-stream-registry (dataflow support tables) -----------------------------------

def test_registry_constructed_outside_owners_flagged():
    findings = lint("""
        def build():
            return RngRegistry(7).stream("mps")
    """, module="repro.policy.fixture")
    assert "rng-stream-registry" in rule_ids(findings)
    assert any("RngRegistry constructed" in f.message for f in findings)


def test_unregistered_stream_name_flagged_with_hint():
    findings = lint("""
        def draw(sim):
            return sim.rng.stream("gfw.interferense")
    """, module="repro.gfw.fixture")
    assert rule_ids(findings) == ["rng-stream-registry"]
    assert "gfw.interference" in findings[0].message  # did-you-mean hint


def test_stream_drawn_outside_owner_flagged():
    findings = lint("""
        def draw(sim):
            return sim.rng.stream("link.loss")
    """, module="repro.gfw.fixture")
    assert rule_ids(findings) == ["rng-stream-registry"]


def test_owned_stream_draw_clean():
    assert lint("""
        def draw(sim):
            return sim.rng.stream("link.loss")
    """, module="repro.net.fixture") == []


def test_dynamic_stream_prefix_checked():
    assert lint("""
        def draw(sim, a, b):
            return sim.rng.stream(f"link:{a}->{b}")
    """, module="repro.net.fixture") == []
    findings = lint("""
        def draw(sim, a, b):
            return sim.rng.stream(f"edge:{a}->{b}")
    """, module="repro.net.fixture")
    assert rule_ids(findings) == ["rng-stream-registry"]


# -- wire-schema (dataflow support tables) -------------------------------------------

def test_wire_tuple_wrong_arity_flagged():
    findings = lint("""
        def hello(conn):
            conn.send_message(16, meta=("sc-overload", 0.05, "extra"))
    """, module="repro.core.fixture")
    assert rule_ids(findings) == ["wire-schema"]


def test_wire_tuple_valid_arities_clean():
    assert lint("""
        def hello(conn, token):
            conn.send_message(64, meta=("sc-connect", "host", 443))
            conn.send_message(64, meta=("sc-connect", "host", 443, token))
            conn.send_message(16, meta=("sc-overload", 0.05))
    """, module="repro.core.fixture") == []


def test_wire_guard_wrong_length_flagged():
    findings = lint("""
        def parse(frame):
            if frame[0] == "sc-overload" and len(frame) == 5:
                return frame[1]
            return None
    """, module="repro.core.fixture")
    assert rule_ids(findings) == ["wire-schema"]


def test_wire_subscript_past_schema_flagged():
    findings = lint("""
        def parse(frame):
            if frame[0] == "sc-overload":
                return frame[3]
            return None
    """, module="repro.core.fixture")
    assert rule_ids(findings) == ["wire-schema"]
    assert "at most 2" in findings[0].message


def test_wire_untagged_tuple_ignored():
    assert lint("""
        def pack(a, b):
            return (a, b, a, b)
    """, module="repro.core.fixture") == []


# -- stale-suppression ---------------------------------------------------------------

def test_stale_line_suppression_flagged():
    findings = lint("""
        import os

        def ok():
            return os.getcwd()  # reprolint: disable=det-wallclock
    """, module="repro.sim.fixture")
    assert rule_ids(findings) == ["stale-suppression"]
    assert "det-wallclock" in findings[0].message


def test_used_suppression_not_stale():
    assert lint("""
        import time

        def stamp():
            return time.time()  # reprolint: disable=det-wallclock
    """, module="repro.sim.fixture") == []


def test_unknown_rule_id_suppression_flagged():
    findings = lint("""
        x = 1  # reprolint: disable=no-such-rule
    """, module="repro.sim.fixture")
    assert rule_ids(findings) == ["stale-suppression"]
    assert "no-such-rule" in findings[0].message


def test_stale_file_level_suppression_flagged():
    findings = lint("""
        # reprolint: disable=det-seeded-random
        x = 1
    """, module="repro.sim.fixture")
    assert rule_ids(findings) == ["stale-suppression"]


def test_out_of_scope_suppression_not_judged():
    # det-wallclock does not apply in repro.realnet, so an unused
    # disable there is configuration noise, not a stale suppression.
    assert lint("""
        import time

        def stamp():
            return time.time()  # reprolint: disable=det-wallclock
    """, module="repro.realnet.fixture") == []
