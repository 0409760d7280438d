"""Documentation stays true: link integrity and API.md drift.

Two classes of doc rot are caught here instead of in review:

* **broken links/anchors** — every relative link and ``#fragment`` in the
  user-facing markdown resolves (``tools/check_markdown_links.py``, the
  same checker CI runs);
* **API.md drift** — every symbol named in the first column of an API.md
  layer table is actually importable from the package root that section
  documents (this is how the missing ``TESTCHIP_VARIATION`` export was
  found), and — the reverse direction — every public
  ``repro.service.__all__`` export is named somewhere in the service
  sections, so new exports cannot ship undocumented.
"""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: The user-facing markdown surface (what the CI docs job checks).
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "EXPERIMENTS.md", REPO / "DESIGN.md"]
    + list((REPO / "docs").glob("*.md"))
)

_SECTION_RE = re.compile(r"^##+ .*\(`(repro[\w.]*)`\)")
_CHUNK_RE = re.compile(r"`([^`]+)`")
_LEADING_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def api_md_symbols():
    """Yield (module_name, dotted_symbol) for every checkable API.md cell."""
    module = None
    for line in (REPO / "docs" / "API.md").read_text().splitlines():
        match = _SECTION_RE.match(line)
        if match:
            module = match.group(1)
            continue
        if line.startswith("## "):  # section without a module (CLI, Conventions)
            module = None
        if module is None or not line.startswith("| "):
            continue
        first_cell = line.split("|")[1]
        for chunk in _CHUNK_RE.findall(first_cell):
            chunk = chunk.replace("​", "")  # zero-width line-break hints
            if "*" in chunk:  # wildcard shorthand (`optimize_beta_*`, ...)
                continue
            leading = _LEADING_RE.match(chunk)
            if leading is None or leading.group(0) == "symbol":
                continue
            yield module, leading.group(0).rstrip(".")


class TestMarkdownLinks:
    def test_all_doc_files_exist(self):
        assert DOC_FILES, "doc file glob came up empty"
        for path in DOC_FILES:
            assert path.is_file(), path

    def test_no_broken_links_or_anchors(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_markdown_links.py")]
            + [str(p) for p in DOC_FILES],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestApiReferenceDrift:
    def test_catalog_is_nonempty(self):
        symbols = list(api_md_symbols())
        # The reference documents well over a hundred symbols; a collapse
        # here means the parser (or the doc structure) broke.
        assert len(symbols) > 100

    @pytest.mark.parametrize(
        "module_name,symbol",
        sorted(set(api_md_symbols())),
        ids=lambda value: str(value),
    )
    def test_documented_symbol_is_importable(self, module_name, symbol):
        obj = importlib.import_module(module_name)
        for part in symbol.split("."):
            assert hasattr(obj, part), (
                f"docs/API.md documents `{symbol}` under `{module_name}`, "
                f"but {obj!r} has no attribute {part!r}"
            )
            obj = getattr(obj, part)


def section_tokens(section_module):
    """Every identifier in backticks inside API.md's sections documenting
    ``section_module`` (tables and prose alike)."""
    module = None
    tokens = set()
    for line in (REPO / "docs" / "API.md").read_text().splitlines():
        match = _SECTION_RE.match(line)
        if match:
            module = match.group(1)
        elif line.startswith("## "):
            module = None
        if module != section_module:
            continue
        for chunk in _CHUNK_RE.findall(line):
            tokens.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", chunk))
    return tokens


def service_section_tokens():
    return section_tokens("repro.service")


class TestServiceSectionCompleteness:
    """The reverse drift direction: code → doc.

    ``repro.service`` is where exports have historically outrun the
    reference (the adaptive and topology layers each added a dozen), so
    every name in its ``__all__`` must appear in API.md's service
    sections — adding an export without documenting it fails here.
    """

    @pytest.mark.parametrize(
        "name",
        sorted(importlib.import_module("repro.service").__all__),
    )
    def test_every_service_export_is_documented(self, name):
        assert name in service_section_tokens(), (
            f"repro.service exports `{name}` but docs/API.md's service "
            f"section never mentions it — add it to the reference table"
        )


class TestProdtestSectionCompleteness:
    """Code → doc drift for the production-test subsystem: every public
    ``repro.prodtest`` export must appear in API.md's prodtest section,
    and PRODTEST.md must name the load-bearing surface it documents."""

    @pytest.mark.parametrize(
        "name",
        sorted(importlib.import_module("repro.prodtest").__all__),
    )
    def test_every_prodtest_export_is_documented(self, name):
        assert name in section_tokens("repro.prodtest"), (
            f"repro.prodtest exports `{name}` but docs/API.md's prodtest "
            f"section never mentions it — add it to the reference table"
        )

    @pytest.mark.parametrize(
        "name",
        sorted(importlib.import_module("repro.streams").__all__),
    )
    def test_every_streams_export_is_documented(self, name):
        assert name in section_tokens("repro.streams"), (
            f"repro.streams exports `{name}` but docs/API.md's streams "
            f"section never mentions it"
        )

    def test_prodtest_doc_names_the_surface(self):
        text = (REPO / "docs" / "PRODTEST.md").read_text()
        for needle in (
            "MARCH_TESTS",
            "march-1t1j",
            "DISTURB_THRESHOLD",
            "run_march_test",
            "characterize_dies",
            "knob_bounds",
            "build_wafer",
            "run_wafer",
            "provision_ecc",
            "compare_schemes",
            "publish_wafer_report",
            "(seed, 8)",
            "BENCH_prodtest.json",
            "repro prodtest --dies 256 --check",
        ):
            assert needle in text, needle


class TestResilienceDocDrift:
    """The drift contract extended to the resilience modules.

    The class/function exports of ``repro.service.failures`` and
    ``repro.service.journal`` must flow through ``repro.service.__all__``
    (so :class:`TestServiceSectionCompleteness` forces them into API.md),
    and RESILIENCE.md must name the load-bearing surface it documents.
    """

    @pytest.mark.parametrize(
        "module_name", ["repro.service.failures", "repro.service.journal"]
    )
    def test_resilience_exports_reach_the_package_root(self, module_name):
        module = importlib.import_module(module_name)
        service = importlib.import_module("repro.service")
        missing = [
            name
            for name in module.__all__
            # Scenario-name string constants stay module-level detail;
            # classes and callables are the documented API surface.
            if not name.isupper() or name in ("FAILURE_KINDS", "CHAOS_SCENARIOS")
            if name not in service.__all__
        ]
        assert not missing, (
            f"{module_name} exports {missing} but repro.service does not "
            f"re-export them — they would escape the API.md drift test"
        )

    def test_resilience_doc_names_the_surface(self):
        text = (REPO / "docs" / "RESILIENCE.md").read_text()
        for needle in (
            "FailureScenario",
            "build_failure_scenario",
            "install_failures",
            "split_with_failover",
            "WriteAheadJournal",
            "CrashStats",
            "crash_restart(",
            "run_chaos_campaign",
            "(seed, 7)",
            "requests == completed + shed + timed_out + failed_requests",
        ):
            assert needle in text, needle


class TestObsSurface:
    def test_all_public_obs_symbols_resolve(self):
        obs = importlib.import_module("repro.obs")
        for name in obs.__all__:
            assert getattr(obs, name, None) is not None, name

    def test_top_level_reexports_obs(self):
        repro = importlib.import_module("repro")
        assert "obs" in repro.__all__
        assert repro.obs is importlib.import_module("repro.obs")

    def test_observability_doc_names_real_metrics(self):
        # Spot-check the catalog's load-bearing names against the code so
        # the doc can't silently drift from the instrumentation.
        text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        for needle in (
            "core.reads.batch",
            "campaign.words",
            "recovery.words",
            "retry.attempts",
            "faults.injected_cells",
            "timing.read_latency_ns",
            "read_issued",
            "fault_injected",
            "service.failures.events",
            "service.hedged",
            "service.availability",
            "service.topology.failover.unreachable",
        ):
            assert needle in text, needle
