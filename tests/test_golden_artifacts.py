"""Pinned sha256 digests of the run artifacts.

Every case runs the CLI end to end and hashes ``scatter.csv``, ``events.csv``
and ``summary.json``. The digests were computed once from the code before the
per-interval hot path was optimised, so any change to the bytes of a run,
however small (a float rounded differently, an event reordered), fails here.
A change that alters the artifacts on purpose must re-pin them and say why.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest

from phasesim import PhaseDetector, cli, detect_over_samples, experiment, run_experiment

ARTIFACTS = ("scatter.csv", "events.csv", "summary.json")

#: Simulate cases: the config file's text and extra ``simulate`` flags.
#: The steady preset is cut to a cycle count that leaves a truncated final
#: interval and carries noise, so the jitter formula and the truncation are
#: pinned too; ``fixed_tau = 300000`` makes fixed intervals straddle the
#: fft_like segment boundaries.
SIMULATE_CASES = {
    "steady_fixed": (
        "workload.preset = steady\nworkload.cycles = 20050000\n"
        "workload.noise = 0.05\n",
        ["--fixed-tau", "100000", "--seed", "3"],
    ),
    "steady_variable": (
        "workload.preset = steady\nworkload.cycles = 20050000\n"
        "workload.noise = 0.05\n",
        ["--variable-tau", "--seed", "3"],
    ),
    "fft_like_fixed": ("workload.preset = fft_like\n", ["--fixed-tau", "100000"]),
    "fft_like_variable": ("workload.preset = fft_like\n", ["--variable-tau"]),
    "fmm_like_fixed": ("workload.preset = fmm_like\n", ["--fixed-tau", "100000"]),
    "fmm_like_variable": ("workload.preset = fmm_like\n", ["--variable-tau"]),
    "fft_like_variable_B0": (
        "workload.preset = fft_like\nstart_core = B0\n",
        ["--variable-tau"],
    ),
    "fft_like_fixed_300k_B0": (
        "workload.preset = fft_like\nstart_core = B0\n",
        ["--fixed-tau", "300000"],
    ),
    "fmm_like_fixed_B0": (
        "workload.preset = fmm_like\nstart_core = B0\n",
        ["--fixed-tau", "100000"],
    ),
}

#: Detect cases: the trace file name (its suffix picks the format) and the
#: config of the ``simulate --emit-trace`` run that writes it, at a fixed tau
#: on one core.
_TRACED = "mode = fixed_tau\nfixed_tau = 100000\nscheduler.enabled = no\n"
DETECT_CASES = {
    "detect_fft_like_B_csv": (
        "trace.csv",
        "workload.preset = fft_like\nstart_core = B0\n" + _TRACED,
    ),
    "detect_fmm_like_A_jsonl": (
        "trace.jsonl",
        "workload.preset = fmm_like\nstart_core = A0\n" + _TRACED,
    ),
}

GOLDEN = {
    "detect_fft_like_B_csv": {
        "events.csv": (
            "9bedc5600c53c9ef58cfb8e243ec42f5"
            "32574a324e5089dabf63e8183f10115e"
        ),
        "scatter.csv": (
            "9f381027387581c352dbcebfeb49d002"
            "40e855699be5733adfa4006bc3a9349c"
        ),
        "summary.json": (
            "5fe03c2a45ceea304df7490914bdb331"
            "14838db86e8cc73d88e12b30b86aa9fd"
        ),
        "trace": (
            "488e1937abbc1be7ccaacc597b115d46"
            "8ef6eff77853a92336a7e8f307bdb5cd"
        ),
    },
    "detect_fmm_like_A_jsonl": {
        "events.csv": (
            "c2933d49bbb5984c22e9034aeb0d91b1"
            "8291804ba84632ea573a398c8de33eeb"
        ),
        "scatter.csv": (
            "0288d502e5d52613f39c8073b0937dda"
            "d0c91e44c49ec913d7c2d2645a6c1cca"
        ),
        "summary.json": (
            "e5571e3c5abdd773f5060b7a1a5523b4"
            "c5ac41ea5da7fa7a48370a0680b6f2e5"
        ),
        "trace": (
            "9056d0f55d87914462549fbbcfb8a019"
            "a1cf126688ab880c06167358b23cd5b6"
        ),
    },
    "fft_like_fixed": {
        "events.csv": (
            "8d670ea2a0ec43ef295c2584ba2f37dd"
            "87af4e34f969d6aba988ce11112ad6cc"
        ),
        "scatter.csv": (
            "476a0554a109f164010cbc70e66336b3"
            "944cc218e640dcf5522f7439fb71d8ab"
        ),
        "summary.json": (
            "feaeb73269da1b5034042072fc41c7c8"
            "3ff24e2981926af13cdaf062f8376bd3"
        ),
    },
    "fft_like_fixed_300k_B0": {
        "events.csv": (
            "2c3946a094276a0fe1bcb03299a5b6dd"
            "cfbdd7d67c4319667ff5b4ee74a4cc0a"
        ),
        "scatter.csv": (
            "a65041cebfd0f40f769371aea386e441"
            "d4ecd457aadae00f97965fefd708654f"
        ),
        "summary.json": (
            "bb31da2cd020f570ea247b7c011d1407"
            "099df718d3bbc381f2e048a930d9f003"
        ),
    },
    "fft_like_variable": {
        "events.csv": (
            "44f44b7fd785372d7bae7460bb349209"
            "c9b396477cb3820efafe86ac42f77fb9"
        ),
        "scatter.csv": (
            "f095c077069909774f886731f68ff631"
            "0534bca75b8f167ba24310dd61bf101a"
        ),
        "summary.json": (
            "cc4e4ee1ad79d8033448132f0c2db752"
            "e0d294df55ed80558157520cf726a95f"
        ),
    },
    "fft_like_variable_B0": {
        "events.csv": (
            "1a9bf0ed30e5c3c621c7172fca218ce5"
            "346146c71546c191d9816e7e3b4e4007"
        ),
        "scatter.csv": (
            "66b2aea227a391e1fb6ebed94e5bd6ad"
            "04f0b7e252257f0008d6528637eafb7f"
        ),
        "summary.json": (
            "c657a42fd599d16379001710c13f83a3"
            "a39ca37101b702471c39c54b7880fd58"
        ),
    },
    "fmm_like_fixed": {
        "events.csv": (
            "c8cb0ebf396fb844a68e6d2f7cc58643"
            "ab0e053996a3ac6a3767a802d3c1c95c"
        ),
        "scatter.csv": (
            "f5096b4c752cff23cbc15b427adf706b"
            "c44780570ea20a61852c2fc28daa6f8d"
        ),
        "summary.json": (
            "d4fc2a4a7b0eb6cf1b87c87319b2f95c"
            "10d940c240d521c80ce1ee16c1088011"
        ),
    },
    "fmm_like_fixed_B0": {
        "events.csv": (
            "9da59558767d15f4f1a014aacd16897c"
            "d0536c34f74ea8cb886a375a7c09e18f"
        ),
        "scatter.csv": (
            "f4780726fe533d2e66a0fdf601b095aa"
            "06e96cb2c94f68094c3e55707e568686"
        ),
        "summary.json": (
            "cbe36207dc418d7642c23469be028365"
            "9dd79b26085857179387c957c1d695f5"
        ),
    },
    "fmm_like_variable": {
        "events.csv": (
            "c8cb0ebf396fb844a68e6d2f7cc58643"
            "ab0e053996a3ac6a3767a802d3c1c95c"
        ),
        "scatter.csv": (
            "f5096b4c752cff23cbc15b427adf706b"
            "c44780570ea20a61852c2fc28daa6f8d"
        ),
        "summary.json": (
            "7de688d7b187f25aea216a061acf8d31"
            "b92f1b2f4440c1e3779b9de4cdf6c06a"
        ),
    },
    "steady_fixed": {
        "events.csv": (
            "55a9f6c4ce3183a57a210f9391571d00"
            "34adbc4cb14a433054069118629b2e5e"
        ),
        "scatter.csv": (
            "c99939a14b6e11d1ee99df0ae77be111"
            "caae1993ea3ba72e56582be30af24905"
        ),
        "summary.json": (
            "f6daf5de6ca87fc4e3957cb653398560"
            "3ceedc4a8a6195e569a36ed35fae0cb0"
        ),
    },
    "steady_variable": {
        "events.csv": (
            "2c0d93bfec1c36e0b2d33ba21920eca0"
            "8d0d887633b5ad553e30864bb10d32c9"
        ),
        "scatter.csv": (
            "d4dfa68a5042d7c5d9e94fbbea5946a9"
            "f35a3630c663c694bdb118cc40e9e616"
        ),
        "summary.json": (
            "758405cd08300f2dbe5d8687e492f7f3"
            "bb95f2bebf7215e4fd31001df99c67ec"
        ),
    },
}


def _digests(out: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def run_simulate_case(name: str, tmp_path: Path) -> dict[str, str]:
    text, flags = SIMULATE_CASES[name]
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "run"
    code = cli.main(["simulate", "--config", str(config), *flags, "--out", str(out)])
    assert code == 0
    return _digests(out)


def run_detect_case(name: str, tmp_path: Path) -> dict[str, str]:
    trace_name, text = DETECT_CASES[name]
    config = tmp_path / "traced.conf"
    config.write_text(text)
    trace = tmp_path / trace_name
    simulated = ["simulate", "--config", str(config), "--out", str(tmp_path / "simulated")]
    assert cli.main([*simulated, "--emit-trace", str(trace)]) == 0
    out = tmp_path / "run"
    assert cli.main(["detect", "--trace", str(trace), "--out", str(out)]) == 0
    return {
        "trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
        **_digests(out),
    }


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_artifacts_match_pinned_digests(name, tmp_path):
    assert run_simulate_case(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DETECT_CASES))
def test_detect_artifacts_match_pinned_digests(name, tmp_path):
    assert run_detect_case(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES) + sorted(DETECT_CASES))
def test_runs_in_memory_and_on_disk_agree(name, tmp_path, monkeypatch):
    # Each call the CLI makes, with its output directory, is made again
    # without one: the two runs give equal rows, events and summaries, and
    # the lines kept in memory are scatter.csv byte for byte.
    runs = []

    def simulate(config, out_dir, trace=None, inputs=None):
        on_disk = run_experiment(config, out_dir, trace, inputs)
        runs.append((run_experiment(config), on_disk, out_dir))
        return on_disk

    def detect(samples, det_cfg, label, out_dir):
        samples = list(samples)
        on_disk = detect_over_samples(samples, det_cfg, label, out_dir)
        runs.append((detect_over_samples(samples, det_cfg, label), on_disk, out_dir))
        return on_disk

    monkeypatch.setattr(cli, "run_experiment", simulate)
    monkeypatch.setattr(cli, "detect_over_samples", detect)
    run = run_simulate_case if name in SIMULATE_CASES else run_detect_case
    assert run(name, tmp_path) == GOLDEN[name]
    # A detect case simulates its trace first.
    assert len(runs) == (1 if name in SIMULATE_CASES else 2)
    for in_memory, on_disk, out in runs:
        assert in_memory.scatter.encode("utf-8") == (out / "scatter.csv").read_bytes()
        assert in_memory.rows == on_disk.rows
        assert in_memory.events == on_disk.events
        assert in_memory.summary == on_disk.summary == json.loads(
            (out / "summary.json").read_text()
        )


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES) + sorted(DETECT_CASES))
def test_phase_count_is_every_phase_in_the_rows(name, tmp_path, monkeypatch):
    # The summary counts the phases its rows name, and those are every phase
    # the detector minted: each id is assigned to the interval that opened it.
    detectors = []

    class RecordingDetector(PhaseDetector):
        def __init__(self, config=None):
            super().__init__(config)
            detectors.append(self)

    monkeypatch.setattr(experiment, "PhaseDetector", RecordingDetector)
    run = run_simulate_case if name in SIMULATE_CASES else run_detect_case
    run(name, tmp_path)
    out = tmp_path / "run"
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "scatter.csv", newline="") as handle:
        phase_ids = {row["phase_id"] for row in csv.DictReader(handle)}
    # A detect case simulates its trace first: the last detector is the replay's.
    assert len(detectors) == (1 if name in SIMULATE_CASES else 2)
    detector = detectors[-1]
    assert summary["phase_count"] == len(phase_ids) == len(detector.phases)


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES) + sorted(DETECT_CASES))
def test_summary_keys_are_the_table_fields(name, tmp_path):
    # simulate writes every field of the table, detect all but the
    # simulate-only ones; every phase holds exactly the phase fields.
    run = run_simulate_case if name in SIMULATE_CASES else run_detect_case
    run(name, tmp_path)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    expected = [
        key
        for key, row in experiment.SUMMARY_FIELDS.items()
        if name in SIMULATE_CASES or not row.simulate_only
    ]
    assert sorted(summary) == sorted(expected)
    types = {key: row.type for key, row in experiment.SUMMARY_FIELDS.items()}
    assert summary["phases"]
    for phase in summary["phases"]:
        assert sorted(phase) == sorted(experiment.PHASE_FIELDS)
        assert {key: type_name(value) for key, value in phase.items()} == experiment.PHASE_FIELDS
    for key, value in summary.items():
        assert type_name(value) in types[key].split(" | "), key


def type_name(value) -> str:
    """A JSON value's type as the summary tables name it."""
    return "None" if value is None else type(value).__name__
