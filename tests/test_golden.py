"""Golden CLI corpus: stdout of a fixed set of CLI calls must not change.

Every input is built here from a fixed seed and covers singletons,
(-inf,b) bars, multiplicities above one and q*pi + s ends.  Each call's
stdout is compared by sha256 with a digest recorded when the corpus was
added, so a refactor that changes any output byte fails here.  After an
intended output change, print the new table with

    PYTHONPATH=src python tests/test_golden.py

and review every changed line before pasting it into DIGESTS.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction as F

import pytest

from sheafcalc.cli import main

SEED = 20261018


def _end(v, closed):
    return {"v": v, "closed": closed}


def _rec(lo, hi, deg=0, mult=1, lo_closed=True, hi_closed=False):
    return {"lo": _end(lo, lo_closed), "hi": _end(hi, hi_closed), "deg": deg, "mult": mult}


def _tamarkin(rng, n, degrees=2, inf_p=0.2):
    """n seeded [a,b) / [a,+inf) records with quarter-step ends, some with mult 2."""
    out = []
    for _ in range(n):
        lo = F(rng.randint(-12, 12), rng.choice((1, 2, 4)))
        hi = "+inf" if rng.random() < inf_p else str(lo + F(rng.randint(1, 16), rng.choice((1, 2, 4))))
        out.append(_rec(str(lo), hi, rng.randrange(degrees), rng.choice((1, 1, 2))))
    return out


def _pi(q, s="0"):
    return {"pi": q, "plus": s}


def corpus_inputs(rng):
    """placeholder name -> barcode, complex or front file text."""
    a = _tamarkin(rng, 7)
    b = _tamarkin(rng, 6)
    singles = [
        _rec("2", "2", 1, 2, hi_closed=True),
        _rec("-1/2", "-1/2", 0, 1, hi_closed=True),
    ] + _tamarkin(rng, 3)
    left = [
        _rec("-inf", str(F(rng.randint(-8, 8), 2)), rng.randrange(2), 1 + rng.randrange(2), lo_closed=False)
        for _ in range(3)
    ] + _tamarkin(rng, 3)
    pis = [
        _rec(_pi("1"), _pi("2", "1/2"), 0, 2),
        _rec("1/2", _pi("1"), 1),
        _rec(_pi("1", "-1"), _pi("3"), 0),
        _rec(_pi("1/2"), _pi("3/2", "-1/4"), 1, 3),
    ]
    mixed = [
        _rec("0", "3", 0, 1, lo_closed=False, hi_closed=True),
        _rec("1", "1", 1, 2, hi_closed=True),
        _rec("-inf", "2", 0, 1, lo_closed=False),
        _rec("-2", "5", 1, 1, lo_closed=False),
    ]
    # 3 x 3 grid torus (a closed surface, as the sheaf route needs)
    tris = []
    for i in range(3):
        for j in range(3):
            v, right = 3 * i + j, 3 * i + (j + 1) % 3
            down, diag = 3 * ((i + 1) % 3) + j, 3 * ((i + 1) % 3) + (j + 1) % 3
            tris += [sorted((v, down, diag)), sorted((v, right, diag))]
    values = [str(F(rng.randint(0, 20), 2)) for _ in range(9)]
    cx_text = f"9 {len(tris)}\n" + " ".join(values) + "\n" + "".join("3 %d %d %d\n" % tuple(t) for t in tris)
    cx_json = {"values": values[:4], "simplices": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]}
    c, d = _tamarkin(rng, 8, inf_p=0), _tamarkin(rng, 6, inf_p=0)
    front = {"xs": ["-1", "0", "1", "2"], "t_minus": ["0", "1", "1/2", "0"], "t_plus": ["0", "5/2", "2", "0"]}
    bc = {name: {"bars": bars} for name, bars in
          [("a", a), ("b", b), ("c", c), ("d", d), ("singles", singles), ("left", left), ("pis", pis), ("mixed", mixed)]}
    out = {name: json.dumps(obj) for name, obj in bc.items()}
    out["pair"] = json.dumps({"b1": bc["c"], "b2": bc["d"]})
    out["cx"] = cx_text
    out["cxj"] = json.dumps(cx_json)
    out["front"] = json.dumps(front)
    return out


def write_inputs(root):
    """Write the corpus inputs under root; return placeholder name -> path."""
    paths = {}
    for name, text in corpus_inputs(random.Random(SEED)).items():
        paths[name] = str(root / f"{name}.in")
        (root / f"{name}.in").write_text(text)
    return paths


# (id, argv with @name standing for the input file `name` above)
CALLS = [
    ("barcode", ["barcode", "@a"]),
    ("barcode-stalk", ["barcode", "@pis", "--stalk", "pi+1"]),
    ("barcode-sections", ["barcode", "@a", "--sections", "3/2"]),
    ("barcode-spec", ["barcode", "@mixed", "--spec"]),
    ("barcode-spec-pi", ["barcode", "@pis", "--spec"]),
    ("barcode-convention", ["barcode", "@b", "--convention", "right-closed"]),
    ("barcode-text", ["barcode", "@left", "--format", "text"]),
    ("ops-convolve", ["ops", "convolve", "@a", "@b"]),
    ("ops-convolve-singletons", ["ops", "convolve", "@singles", "@a"]),
    ("ops-convolve-pi", ["ops", "convolve", "@pis", "@singles"]),
    ("ops-convolve-np", ["ops", "convolve-np", "@left", "@singles"]),
    ("ops-convolve-np-pi", ["ops", "convolve-np", "@pis", "@left"]),
    ("ops-hom-star", ["ops", "hom-star", "@a", "@b"]),
    ("ops-hom-star-pi", ["ops", "hom-star", "@pis", "@a"]),
    ("ops-adjoint", ["ops", "adjoint", "@pis"]),
    ("ops-rhom-total", ["ops", "rhom-total", "@a", "@left"]),
    ("ops-rhom-sheaf", ["ops", "rhom-sheaf", "@a", "@b"]),
    ("ops-rhom-sheaf-pi", ["ops", "rhom-sheaf", "@b", "@pis"]),
    ("ops-shift-t", ["ops", "shift-t", "@mixed", "--c", "pi-1/3"]),
    ("ops-shift-deg", ["ops", "shift-deg", "@left", "--k", "2"]),
    ("ops-torsion", ["ops", "torsion", "@mixed"]),
    ("ops-tau-rank", ["ops", "tau-rank", "@b", "--c", "5/2"]),
    ("ops-capacity", ["ops", "capacity", "@c"]),
    ("ops-capacity-prime", ["ops", "capacity-prime", "@pis"]),
    ("dist", ["dist", "@c", "@d"]),
    ("dist-infinite", ["dist", "@a", "@b"]),
    ("dist-delta", ["dist", "@c", "@d", "--delta", "9/2"]),
    ("dist-combined", ["dist", "@pair"]),
    ("morse-sublevel", ["morse", "sublevel", "@cx"]),
    ("morse-superlevel-json", ["morse", "superlevel", "@cxj", "--two-critical-bound"]),
    ("morse-sheaf", ["--field", "3", "morse", "sheaf", "@cx"]),
    ("morse-front", ["morse", "front", "@front"]),
    ("morse-front-capacity", ["morse", "front", "@front", "--capacity"]),
    ("domain-ball-barcode", ["domain", "ball", "--n", "2", "--r", "1", "--tmax", "4pi"]),
    ("domain-ellipsoid-stalk", ["domain", "ellipsoid", "--n", "2", "--r", "1", "--R", "3/2", "--stalk", "7"]),
    ("domain-scaled-invariant", ["domain", "--spec-json", '{"scaled_ball":{"c":"1/2","ball":{"n":1,"r":"2"}}}', "--invariant", "5"]),
    ("domain-transfer", ["domain", "ball", "--n", "1", "--r", "1", "--transfer", "1", "2pi"]),
    ("domain-eigen", ["domain", "ball", "--n", "1", "--r", "1", "--eigen", "7", "--M", "8"]),
    ("domain-cone", ["domain", "ball", "--n", "1", "--r", "1", "--cone", "2", "--c", "1/2", "--M", "8"]),
    ("nonsqueeze", ["nonsqueeze", "--n", "2", "--r1", "6/5", "--r2", "1", "--R", "10"]),
    ("plot-svg", ["plot", "@pis", "--title", "pi & <ends>"]),
    ("plot-text", ["plot", "@mixed", "--format", "text"]),
    ("plot-svg-infinite", ["plot", "@mixed"]),
]

DIGESTS = {
    "barcode": "375f91bf6a4adc8d33c73ad3b53df6c672b3390f44bc7d05466215e6f95d1d30",
    "barcode-stalk": "5091aa32bdaf85c6b146eae9004b060496b7fc80b74befa982d2a7f6ce03c557",
    "barcode-sections": "2609404fd5bf65b77b638d10a3fec60a4f1cc1610614e32e5ab52f6a2fc6d098",
    "barcode-spec": "09362517a4552b8ff664938fc9696a4c52704c6ddd044b02b7c3c2d04f09227f",
    "barcode-spec-pi": "65db5adb872d6fb0810b897268dc633b43b51862c081d2c7099b80a834e37d4a",
    "barcode-convention": "a29eb1a7c5d647ef61ab72509afaa935eca4a8bbfea157d813e959b96056296f",
    "barcode-text": "1e627a6e4fbadd2a92b3afabf468671ec56d6f57271ecc2a48b529d05613002e",
    "ops-convolve": "861b9b77094d5c4a1d078f07a9a28cfa29d85900f892131f785865510b0acab8",
    "ops-convolve-singletons": "7f86083968f9b5dad1aa45c4acd72ed112fb0dea345cd6f33c662a762149beca",
    "ops-convolve-pi": "1100ac82eb76deb53f6d48dc6f855613a4c6b768cb0e7d1579123f2d80a6b142",
    "ops-convolve-np": "1f34fd00226cfcd1372925bdf058fe040198b51f50be0220f603402c5281e038",
    "ops-convolve-np-pi": "d43a270521313744ff86d538c6f5594a67cddcd821ffcbefd58b75d2c12c6282",
    "ops-hom-star": "ef3af5bf7a4149b0404b1a6e2b6a4e3f94e48774b34880b9efe12d7918670c17",
    "ops-hom-star-pi": "4173b870f66d604b82662e91eec46ffc64070a3c1c00b5369c3251ae298cb2c1",
    "ops-adjoint": "a8ab3b86756194cea9314107f7ad2e59d576be0e065ba363938c8f476c6987ad",
    "ops-rhom-total": "abc85f218cafd4633a6a4c9e86c95d8f05488e4036ec2cb84a075da2d1e3c48f",
    "ops-rhom-sheaf": "362c2cc84d4dcfd011ac53c2b31b8ea8d0a6fe79fd3e076a6c54ee32ae84b176",
    "ops-rhom-sheaf-pi": "e1a65b6230bdef7661a9822bde73fee8757e4a988e376320748724d6bc415e63",
    "ops-shift-t": "602549d236a0448471f8c8e2145fd08a10153d716279cb119bb95b53d7c909d0",
    "ops-shift-deg": "5d4a591adabc04e8f741e6ab6f96eb74cbdb85d760a94b6fddd63526c2dd0485",
    "ops-torsion": "dd20c4d8faaa3dc7a6accbb7b5031a0eff384f8b6d4c785a02078f2493d7c75f",
    "ops-tau-rank": "8db8b27de1eb7e6a09b8464f5ae6c51e3e4bf425f9191720ae35959c0230f556",
    "ops-capacity": "708f5661fc782994e3b6b59daf1cf1def0fd1202ff8ab2c06f031e1ce5446bd9",
    "ops-capacity-prime": "31924f2c595e86ad71a7b798de9108faaa367d1b94c95d8f1cbb962d64638a66",
    "dist": "c174f920d2397d355989fa7424bc8679dbff401695c51cd3dea32ac82f118e1b",
    "dist-infinite": "c36c4310ad09a7a601740cebfdd5b1f05e00fd1fcdf5c3ccf1b3b53bdff2ae2d",
    "dist-delta": "a598f82596baa4e6bf1bd66293423d85e10906cd6f3bc63b697eba72886b3ba7",
    "dist-combined": "c174f920d2397d355989fa7424bc8679dbff401695c51cd3dea32ac82f118e1b",
    "morse-sublevel": "c8516d907ee409902c7c5a3f24933432b2822973e3552ee32b93349ab3d53c47",
    "morse-superlevel-json": "acf02a09119e09ac323ccee8397443eff435c7059f2e1adc11d89ea857039b27",
    "morse-sheaf": "85d884c7f7c0ba002a2d5f4e3afc5b97cef76d775e6ae390d0bcfb5dafcb5756",
    "morse-front": "6d170874cfff0280aa59ea5f8f8b1c2dddc763b1206cdfb9c25131dcc7285ffa",
    "morse-front-capacity": "2df6a2ee8f6a7c83b671d0fb73f9af84fd4995b48b72f75a975d3056f2f5247b",
    "domain-ball-barcode": "087ee1109a4c50bf32d90b3d6c4e4d5d2647acda4a9020e21bae68e16c5bdeae",
    "domain-ellipsoid-stalk": "39356f4b9c863eb0e27332df2ae13eea44768180b85644892cecaa046a862495",
    "domain-scaled-invariant": "c51018ac01fbf32e07c55382a70aea0ad598c93847e18294d3eadfed5ff4b242",
    "domain-transfer": "c16539df4586c7a388705500e9e80c0d48357c3cc3f1e92c62688647c0df3ded",
    "domain-eigen": "d9540cb416884bba45609f31137a4055bd86cd1798433af51ef92373c9960ba4",
    "domain-cone": "1e77c334a6ec80f775b5053d3ae2897c7150fb5370984f78551d1cc9f3c7fc5b",
    "nonsqueeze": "ae82b6d6f30e23ec5c34ebdc2c1ab1779121bb54753313761c1efb63ef1f1adc",
    "plot-svg": "64b6314f102b6517b759af15e1289a63cf00b51478add6d46fd4ed6e54ef3be9",
    "plot-text": "f538de3628997b08abdf60c38cdc3ddc3d339ee4130bc1a426c57c044d82f0fc",
    "plot-svg-infinite": "9226a1092c14c2921cd7f11255255dd796a0a7b2cfc96535e9d1e993c06f029e",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def run(argv, files):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([files[a[1:]] if a.startswith("@") else a for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, argv", CALLS, ids=[c[0] for c in CALLS])
def test_golden_stdout(files, name, argv):
    code, out, err = run(argv, files)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        fs = write_inputs(Path(d))
        for name, argv in CALLS:
            code, out, err = run(argv, fs)
            if code or err:
                sys.exit(f"{name}: exit {code} {err.strip()}")
            print(f'    "{name}": "{hashlib.sha256(out.encode()).hexdigest()}",')
