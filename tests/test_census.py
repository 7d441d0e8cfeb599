import json

import census


def _verdicts(**changes):
    base = {"passed": True, "failed_at": None, "gate": "rank_1", "d_K": -7, "q": 5,
            "primes": [11], "recognized": ["0", "0"], "pk_nontorsion": True}
    out = {label: dict(base, hash=label * 4) for label in ("11a", "37a", "43a")}
    for label, change in changes.items():
        out[label].update(change)
    return out


def _diff(tmp_path, old, new):
    paths = []
    for name, verdicts in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(verdicts, fh)
    return census.main(["diff", *paths])


def test_census_diff_fails_on_a_changed_verdict_and_names_the_curve(tmp_path, capsys):
    new = _verdicts(**{"37a": {"passed": False, "failed_at": "fricke"}})
    assert _diff(tmp_path, _verdicts(), new) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("37a: ") and "'fricke'" in out[0]
    assert out[1] == "1 verdicts differ; 0 of 3 hashes moved"


def test_census_diff_passes_moved_hashes_alone_and_counts_them(tmp_path, capsys):
    new = _verdicts(**{"11a": {"hash": "moved"}, "43a": {"hash": "moved"}})
    assert _diff(tmp_path, _verdicts(), new) == 0
    assert capsys.readouterr().out == "0 verdicts differ; 2 of 3 hashes moved\n"


def test_census_diff_fails_on_a_curve_only_one_run_has(tmp_path, capsys):
    new = _verdicts()
    del new["43a"]
    assert _diff(tmp_path, _verdicts(), new) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("43a: ") and out[0].endswith(" -> absent")
    assert out[1] == "1 verdicts differ; 0 of 2 hashes moved"
