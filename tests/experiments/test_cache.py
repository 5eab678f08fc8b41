"""On-disk grid-point cache tests: keys, round-trips, invalidation."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.runner import ExperimentSuite

PARAMS = {
    "schema": cache_mod.SCHEMA_VERSION,
    "rounds": 4,
    "seed": 3,
    "case": {"name": "I", "n_tags": 50, "frame_size": 30},
    "protocol": "fsa",
    "scheme": "qcd-8",
}


class TestKey:
    def test_stable(self):
        assert cache_key(PARAMS) == cache_key(dict(PARAMS))

    def test_insensitive_to_dict_order(self):
        reordered = dict(reversed(list(PARAMS.items())))
        assert cache_key(reordered) == cache_key(PARAMS)

    def test_every_field_enters_the_key(self):
        for field, value in [
            ("rounds", 5),
            ("seed", 4),
            ("protocol", "bt"),
            ("scheme", "crc"),
            ("case", {"name": "I", "n_tags": 50, "frame_size": 31}),
            ("schema", cache_mod.SCHEMA_VERSION + 1),
        ]:
            changed = dict(PARAMS, **{field: value})
            assert cache_key(changed) != cache_key(PARAMS), field


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(PARAMS) is None
        cache.store(PARAMS, {"x": 1.5, "n": 3})
        assert cache.load(PARAMS) == {"x": 1.5, "n": 3}

    def test_written_json_is_rfc8259_strict(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store(PARAMS, {"delay_mean": math.nan, "idle": 2.0})
        doc = json.loads(path.read_text(), parse_constant=pytest.fail)
        assert doc["stats"]["delay_mean"] is None
        assert cache.load(PARAMS) == {"delay_mean": None, "idle": 2.0}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(PARAMS, {"x": 1})
        cache.path_for(PARAMS).write_text("{not json")
        assert cache.load(PARAMS) is None

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.store(PARAMS, {"x": 1})
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", 999)
        assert cache.load(PARAMS) is None

    def test_param_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(PARAMS, {"x": 1})
        # Same file on disk, forged params in the document.
        path = cache.path_for(PARAMS)
        doc = json.loads(path.read_text())
        doc["params"]["seed"] = 12345
        path.write_text(json.dumps(doc))
        assert cache.load(PARAMS) is None


class TestSuiteIntegration:
    def test_warm_cache_skips_kernels_and_is_identical(
        self, tmp_path, monkeypatch
    ):
        first = ExperimentSuite(rounds=3, seed=2, cache_dir=tmp_path)
        grid = dict(cases=("I",), protocols=("fsa", "bt"), schemes=("qcd-8",))
        cold = first.grid(**grid)

        calls = {"n": 0}

        def counted(real):
            def wrapper(*args, **kwargs):
                calls["n"] += 1
                return real(*args, **kwargs)

            return wrapper

        from repro.experiments import parallel as par

        monkeypatch.setattr(par, "fsa_fast_batch", counted(par.fsa_fast_batch))
        monkeypatch.setattr(par, "bt_fast_batch", counted(par.bt_fast_batch))

        warm = ExperimentSuite(rounds=3, seed=2, cache_dir=tmp_path).grid(
            **grid
        )
        assert calls["n"] == 0
        assert set(warm) == set(cold)
        for key in cold:
            assert asdict(warm[key]) == asdict(cold[key]), key

    def test_nan_delay_survives_disk_round_trip(self, tmp_path):
        from repro.experiments.config import SimulationCase

        # A 0-tag FSA inventory identifies nothing: every round's delay is
        # NaN, so the aggregate must be NaN, cached as null, and restored.
        case = SimulationCase("empty", 0, 8)
        cold = ExperimentSuite(rounds=2, seed=1, cache_dir=tmp_path).run(
            case, "fsa", "qcd-8"
        )
        assert math.isnan(cold.delay_mean)
        warm = ExperimentSuite(rounds=2, seed=1, cache_dir=tmp_path).run(
            case, "fsa", "qcd-8"
        )
        assert math.isnan(warm.delay_mean)
        assert warm.rounds == cold.rounds

    def test_different_seeds_do_not_share_entries(self, tmp_path):
        a = ExperimentSuite(rounds=2, seed=1, cache_dir=tmp_path).run(
            "I", "fsa", "qcd-8"
        )
        b = ExperimentSuite(rounds=2, seed=2, cache_dir=tmp_path).run(
            "I", "fsa", "qcd-8"
        )
        assert a.total_time != b.total_time

    def test_no_cache_dir_writes_nothing(self, tmp_path):
        ExperimentSuite(rounds=2, seed=1).run("I", "fsa", "qcd-8")
        assert list(tmp_path.iterdir()) == []


class TestConcurrentWriters:
    def test_same_key_concurrent_stores_never_corrupt(self, tmp_path):
        """16 threads hammering one key: every store survives, every load
        is either a miss (before the first replace) or the full document,
        and no temp files are left behind (the PR-5 race fix)."""
        import threading

        cache = ResultCache(tmp_path)
        stats = {"x": 1.5, "n": 3, "delay_mean": None}
        barrier = threading.Barrier(16)
        errors: list[BaseException] = []

        def writer():
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    cache.store(PARAMS, stats)
                    loaded = cache.load(PARAMS)
                    assert loaded == stats, loaded
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert cache.load(PARAMS) == stats
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_distinct_keys_concurrent_stores(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def writer(seed: int):
            params = dict(PARAMS, seed=seed)
            try:
                barrier.wait(timeout=10)
                for i in range(20):
                    cache.store(params, {"seed": seed, "i": i})
                assert cache.load(params) == {"seed": seed, "i": 19}
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_tmp_names_are_unique_per_call(self, tmp_path, monkeypatch):
        """Two stores of one key in one process must use different temp
        files (the old per-pid suffix made them collide)."""
        cache = ResultCache(tmp_path)
        seen = []
        real_replace = cache_mod.os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", recording_replace)
        cache.store(PARAMS, {"x": 1})
        cache.store(PARAMS, {"x": 2})
        assert len(seen) == 2 and seen[0] != seen[1]


class TestOrphanSweep:
    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        import os as _os

        stale = tmp_path / "deadbeef.json.tmp.1234.0"
        stale.write_text("{half a document")
        old = _os.path.getmtime(stale) - 2 * cache_mod.STALE_TMP_SECONDS
        _os.utime(stale, (old, old))
        ResultCache(tmp_path)
        assert not stale.exists()

    def test_fresh_tmp_files_survive_open(self, tmp_path):
        fresh = tmp_path / "deadbeef.json.tmp.1234.0"
        fresh.write_text("{half a document")
        ResultCache(tmp_path)
        assert fresh.exists()

    def test_failed_write_cleans_its_tmp(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cache_mod.os, "replace", boom)
        with pytest.raises(OSError):
            cache.store(PARAMS, {"x": 1})
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestCrossProcess:
    """The L2 tier's contract under *process*-level sharing: the fleet
    runs one ``ResultCache`` directory behind N backend processes, so a
    reader racing another process's writer must see either a miss or the
    complete document -- never a torn read, never an exception."""

    def test_mid_write_prefix_reads_as_clean_miss(self, tmp_path):
        """Every proper prefix of a real entry's bytes is a miss.

        ``os.replace`` makes this state unreachable through the cache's
        own API; the test pins the defense-in-depth contract for files
        torn by other means (crashed copy, partial scp of a cache dir).
        """
        cache = ResultCache(tmp_path)
        path = cache.store(PARAMS, {"x": 1.5, "n": 3})
        payload = path.read_bytes()
        for cut in (0, 1, len(payload) // 2, len(payload) - 2):
            path.write_bytes(payload[:cut])
            assert cache.load(PARAMS) is None, f"prefix of {cut} bytes hit"
        path.write_bytes(payload)
        assert cache.load(PARAMS) == {"x": 1.5, "n": 3}

    def test_two_process_stress_shared_directory(self, tmp_path):
        """4 real processes hammer one cache directory -- half mostly
        writing, half mostly reading, all on the same small key set.
        Every load in every process must be a miss or a complete
        document, and the directory must end clean of temp files."""
        import subprocess
        import sys

        worker = tmp_path / "worker.py"
        worker.write_text(
            """
import json, sys
from repro.experiments.cache import ResultCache, cache_key

root, role, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(root)
keys = [
    {
        "schema": 1,
        "rounds": 4,
        "seed": s,
        "case": {"name": "I", "n_tags": 50, "frame_size": 30},
        "protocol": "fsa",
        "scheme": "qcd-8",
    }
    for s in range(3)
]
for i in range(rounds):
    params = keys[i % len(keys)]
    if role == "writer":
        cache.store(params, {"seed": params["seed"], "i": i, "x": 1.5})
        loaded = cache.load(params)
    else:
        loaded = cache.load(params)
    if loaded is not None:
        # A hit is always a *complete* store: all fields, right seed.
        assert set(loaded) == {"seed", "i", "x"}, loaded
        assert loaded["seed"] == params["seed"], loaded
        assert loaded["x"] == 1.5, loaded
print("ok")
"""
        )
        cache_dir = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [sys.executable, str(worker), str(cache_dir), role, "400"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for role in ("writer", "writer", "reader", "reader")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        assert list(cache_dir.glob("*.tmp.*")) == []
        # The survivors are real, loadable entries.
        cache = ResultCache(cache_dir)
        hit = cache.load(
            {
                "schema": 1,
                "rounds": 4,
                "seed": 0,
                "case": {"name": "I", "n_tags": 50, "frame_size": 30},
                "protocol": "fsa",
                "scheme": "qcd-8",
            }
        )
        assert hit is not None and hit["x"] == 1.5
