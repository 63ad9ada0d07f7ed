"""Tests for the ``lightweb`` CLI."""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cli.browse import DirectoryCdnProxy, render_to_terminal
from repro.cli.main import build_parser, main
from repro.cli.serve import attach_announcer, build_deployment
from repro.cli.spec import load_site, parse_site_spec
from repro.core.discovery import (
    CachingResolver,
    DirectoryClient,
    DirectoryServer,
    static_directory,
)
from repro.core.lightweb.browser import LightwebBrowser, RenderedPage
from repro.errors import PathError
from repro.obs.metrics import snapshot_total


SPEC = {
    "domain": "cli.example",
    "integrity": True,
    "pages": {
        "/": "CLI front. [[cli.example/about|about]]",
        "/about": {"title": "About", "body": "served by the CLI"},
    },
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "site.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


@contextmanager
def announced(deployment):
    """Announce ``deployment`` to an in-process directory server and yield
    the directory's ``HOST:PORT``; stops both on exit."""
    directory = DirectoryServer()
    try:
        attach_announcer(deployment, DirectoryClient(*directory.address))
        host, port = directory.address
        yield f"{host}:{port}"
    finally:
        deployment.stop()
        directory.stop()


def directory_browser(address):
    """A browser connected through ``DirectoryCdnProxy`` to ``address``."""
    host, port = address.rsplit(":", 1)
    proxy = DirectoryCdnProxy(CachingResolver(DirectoryClient(host,
                                                              int(port))))
    browser = LightwebBrowser(rng=np.random.default_rng(0))
    browser.connect(proxy, "main")
    return browser


class TestSpec:
    def test_parse_basic(self):
        site = parse_site_spec(SPEC)
        assert site.domain == "cli.example"
        assert site._integrity
        assert site.pages() == ["/", "/about"]

    def test_parse_with_program(self):
        spec = dict(SPEC)
        spec["program"] = {"routes": [
            {"pattern": "^/$", "fetches": ["cli.example/"],
             "render": "{data0.body}"},
        ]}
        site = parse_site_spec(spec)
        compiled = site.compile(2048)
        assert len(compiled.data_payloads) == 2

    def test_missing_domain(self):
        with pytest.raises(PathError):
            parse_site_spec({"pages": {"/": "x"}})

    def test_missing_pages(self):
        with pytest.raises(PathError):
            parse_site_spec({"domain": "a.com"})

    def test_load_file(self, spec_file):
        assert load_site(spec_file).domain == "cli.example"

    def test_load_missing_file(self):
        with pytest.raises(PathError):
            load_site("/nonexistent/site.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(PathError):
            load_site(str(path))


class TestServeAndBrowse:
    def test_end_to_end_over_tcp(self, spec_file):
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7)
        with announced(deployment) as address:
            browser = directory_browser(address)
            # The fetch budget came from the records, not a flag.
            assert browser.fetch_budget == 2
            page = browser.visit("cli.example")
            assert "CLI front" in page.text
            about = browser.follow(page, 0)
            assert "served by the CLI" in about.text
            assert not about.notes  # integrity verified cleanly
            browser.close()

    def test_stats_metrics_fold_the_logical_servers(self, spec_file):
        # The deployment's metrics are its logical servers' own scrapes
        # folded together, so they count each served GET exactly once.
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7)
        with announced(deployment) as address:
            browser = directory_browser(address)
            browser.visit("cli.example")
            browser.close()
            stats = deployment.stats_snapshot()
        assert stats["gets_served"] > 0
        metrics = stats["metrics"]
        assert snapshot_total(metrics, "zltp_queries_total") == \
            stats["gets_served"]
        by_mode = {cell["labels"]["mode"]: cell["value"]
                   for cell in metrics["zltp_queries_total"]["series"]}
        assert by_mode == {mode: counts["queries"]
                           for mode, counts in stats["modes"].items()}

    def test_serve_all_registered_modes_by_default(self, spec_file):
        from repro.core.backend import registered_modes

        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7)
        try:
            assert deployment.cdn.modes == registered_modes()
            # Listener width follows the widest served mode (pir2 -> 2).
            assert deployment.n_parties == 2
            ports = deployment.ports()
            assert len(ports["code"]) == 2 and len(ports["data"]) == 2
        finally:
            deployment.stop()

    def test_serve_and_browse_single_server_mode(self, spec_file, capsys):
        # enclave-oram is the single-endpoint mode whose setup fits the
        # wire (the LWE hint for 64 KiB code blobs exceeds the frame cap,
        # so LWE end-to-end coverage lives on in-memory transports).
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7,
                                      modes=["enclave"])
        with announced(deployment) as address:
            assert deployment.cdn.modes == ["enclave-oram"]
            assert deployment.n_parties == 1
            code = main([
                "browse", "cli.example/about",
                "--directory", address,
                "--modes", "enclave",
            ])
            assert code == 0
            assert "served by the CLI" in capsys.readouterr().out

    def test_parse_modes(self):
        from repro.cli.serve import parse_modes
        from repro.errors import NegotiationError

        assert parse_modes(None) is None
        assert parse_modes("") is None
        assert parse_modes("pir2,lwe,enclave") == \
            ["pir2", "pir-lwe", "enclave-oram"]
        with pytest.raises(NegotiationError):
            parse_modes("pir2,bogus")

    def test_parse_modes_unknown_alias_names_valid_modes(self):
        from repro.cli.serve import parse_modes
        from repro.errors import NegotiationError

        with pytest.raises(NegotiationError) as err:
            parse_modes("pir3")
        message = str(err.value)
        assert message.count("\n") == 0  # one line
        assert "pir3" in message
        # Every registered mode (and its aliases) is named, so the user
        # can fix the flag without reading source.
        assert "pir2" in message
        assert "pir-lwe" in message and "lwe" in message
        assert "enclave-oram" in message

    def test_parse_modes_dedupes_repeats(self):
        from repro.cli.serve import parse_modes

        # Repeats — including an alias of an already-seen mode — collapse
        # to the first occurrence.
        assert parse_modes("pir2,pir2,lwe,pir-lwe") == ["pir2", "pir-lwe"]

    def test_parse_hostport(self):
        from repro.cli.serve import parse_hostport
        from repro.errors import ReproError

        assert parse_hostport("127.0.0.1:9000") == ("127.0.0.1", 9000)
        for bad in ("127.0.0.1", "host:", ":9000", "host:a"):
            with pytest.raises(ReproError):
                parse_hostport(bad)

    def test_browse_requires_directory(self):
        with pytest.raises(SystemExit) as err:
            main(["browse", "cli.example"])
        assert err.value.code == 2

    def test_browse_command_one_shot(self, spec_file, capsys):
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7)
        with announced(deployment) as address:
            code = main(["browse", "cli.example/about",
                         "--directory", address])
            assert code == 0
            out = capsys.readouterr().out
            assert "served by the CLI" in out


class TestStatePersistence:
    def test_serve_restart_from_state(self, spec_file, tmp_path):
        state = str(tmp_path / "universe.npz")
        first = build_deployment([spec_file], fetch_budget=2,
                                 data_domain_bits=10, code_domain_bits=7,
                                 state_path=state)
        first.stop()
        # Restart with NO specs: content must come back from the archive.
        second = build_deployment([], fetch_budget=2,
                                  data_domain_bits=10, code_domain_bits=7,
                                  state_path=state)
        with announced(second) as address:
            browser = directory_browser(address)
            assert "CLI front" in browser.visit("cli.example").text
            browser.close()


class TestInteractiveBrowse:
    def test_interactive_loop(self, spec_file):
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7)
        with announced(deployment) as address:
            from repro.cli.browse import cmd_browse

            script = iter(["cli.example", "0", "not_a_path!!", "quit"])
            printed = []
            args = build_parser().parse_args(
                ["browse", "-i", "--directory", address])
            code = cmd_browse(args, input_fn=lambda _p: next(script),
                              print_fn=printed.append)
            assert code == 0
            output = "\n".join(printed)
            assert "CLI front" in output          # visited the front page
            assert "served by the CLI" in output  # followed link 0
            assert "error:" in output             # bad path surfaced, loop alive

    def test_interactive_eof_exits(self, spec_file):
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7)
        with announced(deployment) as address:
            from repro.cli.browse import cmd_browse

            def raise_eof(_prompt):
                raise EOFError

            args = build_parser().parse_args(
                ["browse", "-i", "--directory", address])
            assert cmd_browse(args, input_fn=raise_eof,
                              print_fn=lambda *_: None) == 0


class TestMisc:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["serve", "site.json"],
        ["browse", "cli.example"],
        ["top"],
        ["loadgen"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("bad", ["bogus", "host:", ":9000", "host:a"])
    def test_malformed_directory_is_a_usage_error(self, argv, bad, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--directory", bad])
        assert err.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_costs_command(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "C4" in out

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "It works." in out
        assert "data GETs" in out

    def test_render_to_terminal(self):
        page = RenderedPage(path="a.com/", text="hello",
                            links=[("a.com/x", "X")], notes=["note!"])
        out = render_to_terminal(page)
        assert "a.com/" in out and "[0] X" in out and "note!" in out


class TestLoadgenCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadgen", "--directory",
                                          "127.0.0.1:9900"])
        assert args.directory == ("127.0.0.1", 9900)
        assert args.directory_secret is None
        assert args.offered == [5.0, 10.0, 20.0]
        assert args.users == 4
        assert args.deadline == 1.0
        assert args.fetch_budget is None

    def test_requires_directory(self):
        with pytest.raises(SystemExit) as err:
            main(["loadgen"])
        assert err.value.code == 2

    def test_serve_attaches_admission_gate_to_data_servers(self, spec_file):
        deployment = build_deployment(
            [spec_file], admission_deadline_seconds=0.5,
            admission_max_queue_depth=8)
        try:
            gated = [listener.server for (kind, _), listener
                     in deployment.listeners.items()
                     if kind == "data" and
                     listener.server.admission is not None]
            ungated_code = [listener.server for (kind, _), listener
                            in deployment.listeners.items()
                            if kind == "code"]
            assert gated, "no data server got a gate"
            assert all(s.admission.deadline_seconds == 0.5 and
                       s.admission.max_queue_depth == 8 for s in gated)
            assert all(s.admission is None for s in ungated_code)
        finally:
            deployment.stop()

    def test_sweep_against_live_deployment(self, tmp_path, capsys):
        from repro.core.zltp.server import ZltpServer
        from repro.core.zltp.serving import create_tcp_server
        from repro.pir.database import BlobDatabase

        listeners = []
        for party in (0, 1):
            db = BlobDatabase(8, 128)
            rng = np.random.default_rng(party)
            for slot in range(0, db.n_slots, 8):
                db.set_slot(slot, bytes(
                    rng.integers(0, 256, 32, dtype=np.uint8)))
            server = ZltpServer(db, modes=["pir2"], party=party)
            listeners.append(create_tcp_server("eventloop", server, port=0))
        directory = DirectoryServer(directory=static_directory(
            "127.0.0.1",
            {"data": [listener.address[1] for listener in listeners]},
            modes=["pir2"]))
        out = tmp_path / "sweep.json"
        try:
            host, port = directory.address
            code = main(["loadgen", "--directory", f"{host}:{port}",
                         "--offered", "6", "--users", "2",
                         "--duration", "0.5", "--modes", "pir2",
                         "--fetch-budget", "1", "--out", str(out)])
        finally:
            directory.stop()
            for listener in listeners:
                listener.stop()
        assert code == 0
        printed = capsys.readouterr().out
        assert "offered 6 rps" in printed
        assert "goodput" in printed
        sweep = json.loads(out.read_text())["sweep"]
        assert len(sweep) == 1
        assert sweep[0]["n_requests"] == 3
        assert sweep[0]["ok"] == 3  # idle deployment: nothing shed/late


class TestLint:
    def test_lint_json_on_leaky_module(self, tmp_path, capsys):
        module = tmp_path / "leaky.py"
        module.write_text(
            "import struct\n"
            "\n"
            "def frame(payload):\n"
            '    secret = b"k"  # taint: secret\n'
            '    return struct.pack("<I", len(secret)) + payload\n'
        )
        assert main(["lint", "--json", str(module)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["unsuppressed"] == 1
        assert payload["findings"][0]["rule"] == "secret-len"
        assert payload["findings"][0]["symbol"] == "frame"

    def test_lint_clean_module(self, tmp_path, capsys):
        module = tmp_path / "clean.py"
        module.write_text("def add(a, b):\n    return a + b\n")
        assert main(["lint", str(module)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_nonexistent_path_exits_2_with_one_line_error(self, capsys):
        assert main(["lint", "/no/such/lint/target"]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "no such path" in out
        assert "Traceback" not in out

    def test_lint_nonexistent_directory_is_an_error_not_clean(self, capsys):
        # Before schema 2 a missing *directory* silently expanded to zero
        # files and exited 0 — a green lint run that linted nothing.
        assert main(["lint", "/no/such/dir/"]) == 2
        assert "no such path" in capsys.readouterr().out

    def test_lint_json_schema_2_with_schema_1_compat(self, tmp_path, capsys):
        """Schema 2 adds keys; every schema-1 consumer key must remain."""
        module = tmp_path / "leaky.py"
        module.write_text(
            "import struct\n"
            "\n"
            "def frame(payload):\n"
            '    secret = b"k"  # taint: secret\n'
            '    return struct.pack("<I", len(secret)) + payload\n'
        )
        assert main(["lint", "--json", str(module)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        # Schema-1 top-level contract.
        for key in ("files", "counts", "findings", "suppressed", "baselined"):
            assert key in payload
        for key in ("unsuppressed", "suppressed", "baselined"):
            assert key in payload["counts"]
        # Schema-1 per-finding contract, plus the new family key.
        finding = payload["findings"][0]
        for key in ("rule", "path", "line", "col", "symbol", "message"):
            assert key in finding
        assert finding["family"] == "intra"

    def test_lint_json_interproc_finding_carries_chain(self, tmp_path,
                                                       capsys):
        (tmp_path / "helper.py").write_text(
            "def open_gate(flag):\n"
            "    if flag:\n"
            "        return 1\n"
            "    return 0\n"
        )
        (tmp_path / "entry.py").write_text(
            "from helper import open_gate\n"
            "\n"
            "def run(secret):\n"
            '    token = b"t"  # taint: secret\n'
            "    return open_gate(token)\n"
        )
        assert main(["lint", "--json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        flows = [f for f in payload["findings"]
                 if f["family"] == "taint-flow"]
        assert flows, payload["findings"]
        assert flows[0]["rule"] == "secret-branch"
        assert len(flows[0]["chain"]) >= 2
        assert any("open_gate" in step for step in flows[0]["chain"])
