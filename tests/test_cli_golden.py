"""Exit codes and stdout of the analysis commands, pinned by sha256.

Each case runs one ``estimate``, ``contrast``, ``probcheck`` or ``simulate``
call on the small fixtures of ``test_io_cli`` (and small simulation
configs, n <= 49 with 20 replicates) and compares its exit code and the
sha256 of its stdout with recorded values, so a refactor of the
command-line surface cannot change a byte of the output unnoticed. Error
cases pin the exit code and the empty stdout. ``simulate --out`` also pins
the sha256 of each file it writes.
"""

import hashlib
import json

import pytest

from interfere.cli import main
from test_io_cli import BINARY_CSV, CONFIG, COUNTS_CSV, UNITS_CSV

MC = {"kind": "mc", "samples": 2000, "seed": 3}
FILES = {
    "units.csv": UNITS_CSV,
    "binary.csv": BINARY_CSV,
    "counts.csv": COUNTS_CSV,
    "exact.json": CONFIG,
    "mc.json": dict(CONFIG, p_method=MC),
    "product.json": {"rho": 0.5, "mapping": {"kind": "product"}, "neighborhood": {"d": 2}},
    "singleton.json": {"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 1}, "neighborhood": {"d": 1}},
    "scan.json": {"rho": 0.5, "bonferroni": [[1, 1], [2, 2], [2, 3]], "diagnostics": {"c": 0.5}},
    "scan_mc.json": {"rho": 0.5, "bonferroni": [[1, 1], [2, 3]], "p_method": MC},
    "plain.json": {"rho": 0.5, "alpha": 0.1},
    "no_neighborhood.json": {"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 2}},
    "no_mapping.json": {"rho": 0.5, "neighborhood": {"d": 3}},
    "nbhd.json": [[i, (i + 1) % 6] for i in range(6)],
    "sim.json": {
        "scenario": "exposure_model", "layout": {"kind": "uniform_square", "n": 30, "seed": 1},
        "rho": 0.4, "alpha": 0.1, "configs": [[1, 1], [2, 3], [3, 6]], "replicates": 20, "seed": 2,
    },
    "sim_params.json": {
        "scenario": "exposure_model", "layout": {"kind": "uniform_square", "n": 30, "seed": 1},
        "configs": [[1, 1], [2, 3]], "replicates": 20,
        "params": {"count_mean": 4.0, "count_dispersion": 1.5, "spillover_max": 2.0},
    },
    "sim_counts.json": {
        "scenario": "no_effect_no_clustering", "layout": {"kind": "line", "n": 20},
        "configs": [[2, 3]], "replicates": 20, "params": {"count_mean": 30.0},
    },
    "sim_cluster.json": {
        "scenario": "no_effect_clustering", "layout": {"kind": "two_cluster", "n": 25, "seed": 4},
        "configs": [[1, 1], [2, 2]], "replicates": 20,
    },
    "sim_adversarial.json": {
        "scenario": "adversarial", "layout": {"kind": "uniform_square", "n": 49},
        "configs": [[1, 1]], "replicates": 20,
    },
}

# label -> (argv with file names for paths, formats)
CALLS = {
    "estimate exact": ("estimate --config exact.json --data units.csv", ("json", "text", "csv")),
    "estimate alpha": ("estimate --config exact.json --data units.csv --alpha 0.1", ("json", "text", "csv")),
    "estimate mc": ("estimate --config mc.json --data units.csv", ("json", "text", "csv")),
    "estimate mc seed": ("estimate --config mc.json --data units.csv --seed 5", ("json", "text", "csv")),
    "estimate product": ("estimate --config product.json --data units.csv", ("json", "text", "csv")),
    "estimate singleton": ("estimate --config singleton.json --data units.csv", ("json", "text", "csv")),
    "estimate scan": ("estimate --config scan.json --data units.csv", ("json", "text", "csv")),
    "estimate scan mc": ("estimate --config scan_mc.json --data units.csv", ("json",)),
    "estimate scan nbhd": ("estimate --config scan.json --data units.csv --neighborhoods nbhd.json", ("json",)),
    "estimate no neighborhood": ("estimate --config no_neighborhood.json --data units.csv", ("json",)),
    "estimate no mapping": ("estimate --config no_mapping.json --data units.csv", ("json",)),
    "contrast": ("contrast --data binary.csv", ("json", "text", "csv")),
    "contrast plain": ("contrast --config plain.json --data binary.csv", ("json", "text", "csv")),
    "contrast exact": ("contrast --config exact.json --data binary.csv", ("json", "text", "csv")),
    "contrast alpha": ("contrast --config exact.json --data binary.csv --alpha 0.1", ("json", "text", "csv")),
    "contrast mc": ("contrast --config mc.json --data binary.csv", ("json", "text", "csv")),
    "contrast mc seed": ("contrast --config mc.json --data binary.csv --seed 5", ("json", "text", "csv")),
    "contrast counts": ("contrast --data counts.csv --count-mode", ("json", "text", "csv")),
    "contrast counts plain": ("contrast --config plain.json --data counts.csv --count-mode", ("json", "text", "csv")),
    "probcheck oracle": ("probcheck --config exact.json --data units.csv --oracle", ("json", "text")),
    "probcheck mc": ("probcheck --config mc.json --data units.csv", ("json", "text")),
    "probcheck mc seed": ("probcheck --config mc.json --data units.csv --oracle --seed 5", ("json", "text")),
    "probcheck no neighborhood": ("probcheck --config no_neighborhood.json --data units.csv", ("json",)),
    "simulate": ("simulate --config sim.json", ("json", "text", "csv")),
    "simulate seed": ("simulate --config sim.json --seed 7", ("json", "text", "csv")),
    "simulate params": ("simulate --config sim_params.json", ("json", "text", "csv")),
    "simulate counts": ("simulate --config sim_counts.json", ("json",)),
    "simulate two_cluster": ("simulate --config sim_cluster.json", ("json", "text", "csv")),
    "simulate adversarial": ("simulate --config sim_adversarial.json", ("json",)),
}

# "label format" -> (exit code, sha256 of stdout)
RECORDED = {
    "estimate exact json": (0, "4c27306f5d6937af0669f7b207b749213ab57d508c5c0140edcba6acfc875ffa"),
    "estimate exact text": (0, "20ff10c616c6da4a4ebb316bf51a2edbf6a44fe92fd0776f1355a116ce4b4708"),
    "estimate exact csv": (0, "8bafa37c53dda52af2c9b1c4dc4f0e97af1548ab3c06cd163aa81ce68dc41559"),
    "estimate alpha json": (0, "955126f88dc8bd28ab6d64e8cf5e9661f5826b68a624f10b29e4f2a135d8b436"),
    "estimate alpha text": (0, "9cf128b7a69ca03a253e89d808c12d1273065407c151d015b8dd9045a0bb6b3f"),
    "estimate alpha csv": (0, "54bff0e0768a28b80be3d20b5bfb4baf2ff9e520017f5b3e4d549979802e2b23"),
    "estimate mc json": (0, "1b889d98047366bfd6277ee95fd2b51ae6f3f696c1b650e18824ea99d7f1a6f8"),
    "estimate mc text": (0, "2a17ec3270b182201d7c76e8a7418ff22658982ebeaa4d16d1b341c0ed37dffd"),
    "estimate mc csv": (0, "e0138b130dd98d038ec4d6b3c9e640954234d59b46d60ef363d87b43c79c2d4d"),
    "estimate mc seed json": (0, "5c91f8b72f9bdcb873101c5eeac834daa60fb9c0507c13210adde49dbb6b5604"),
    "estimate mc seed text": (0, "c4a56f5429c797276073e788c1f7ca2952f6b7761848a84d139488860c079190"),
    "estimate mc seed csv": (0, "93ec0ea061982d7dfe1faf62e052558eb23d87c082b860ebe11f92d23dddafb5"),
    "estimate product json": (0, "9b3a7650b493d9cf38a4297262324c2ea3d06809a850a5b30a8739239a68f4c8"),
    "estimate product text": (0, "f4bc0ffbf07388cece1345f46983d8d3f87bf52ffe632d173abe4be43fd59aba"),
    "estimate product csv": (0, "d95706a4e826d3772d272371f091943b25043ff5d51f595b5d8eb80400eaf567"),
    "estimate singleton json": (0, "029a28d3702db3b1b653ae16e201c68c071a931c4c6c7cedccafdc7b95ba0896"),
    "estimate singleton text": (0, "4356a96320ef57d9dc5146b0a0766f86baf423491dd066bc40f65d86959ef13a"),
    "estimate singleton csv": (0, "93756e34385392a8411ff935f04eded53c558af65be731ed7b05d8c77670e5df"),
    "estimate scan json": (0, "31e3ca18332eb4e6344a1343ea9239cf5b355f305d0e31e91ac0ab4b422d47a1"),
    "estimate scan text": (0, "289c13c1b77d99e4822cf3ebac90fab4fd16d2ade2853fa3c902e3531653257c"),
    "estimate scan csv": (0, "c4957583d445196a0f9a5f0499555af9c39b1e156516462a5153add3b777f748"),
    "estimate scan mc json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "estimate scan nbhd json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "estimate no neighborhood json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "estimate no mapping json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "contrast json": (0, "693b68db601dcbaf1bd5b58c8742bd73a3fc834282a3c382e07833d762674c5e"),
    "contrast text": (0, "5c1ce170586ff50836b08e6cc4ec6ef6eb6e5b94e34a1d161bdc7546427d2d23"),
    "contrast csv": (0, "e09d3e245f595331ee6a0c35b1b85fee4f719d0b4333814a46beddc3ac670290"),
    "contrast plain json": (0, "9c49f68877f4cc22784ec02e4e9715a8c5342f8d496d155198ab1a274ca7cdba"),
    "contrast plain text": (0, "b20ef21ef9ab91314e75ae0f2b39ec9d5a65823cc354e219751e3d88f8594fb1"),
    "contrast plain csv": (0, "01468450daabda31bf327ac70adf92d9b1a4b0cd9b0235a82588d8d2fc0a188b"),
    "contrast exact json": (0, "1e4d183ab810a14c4a2d1cc81a33b8690921a2e08fc7668aa0d235dd1c032784"),
    "contrast exact text": (0, "a71631baa12d48341a3229f2c25428e9c4210e7237e6dc2f12dc7f31dfc75d43"),
    "contrast exact csv": (0, "e334a85c37ff54dc130da4d16f5b2d3cbe97382f88bd9133b20f4d39e30eb3f8"),
    "contrast alpha json": (0, "a7adb0b68ddb083332c7f6523f676408781faad85bb77d19fe7eaeaeac051529"),
    "contrast alpha text": (0, "22300f2b8e3d48a8c9bddb9c9b71c610c2d58773c1811a6748ab514569eb8d09"),
    "contrast alpha csv": (0, "21a92af04c62e5fe816cb86ff2649bf6245452a74076cd491f6e3c7e2e70ce5e"),
    "contrast mc json": (0, "a75703eda8f7c43853c748dce40c203cfb9935aef4d03b3949b8a882d1d3d089"),
    "contrast mc text": (0, "8faf0b1e26f1fc99c01b38c40d7754866fc6ca458cb70a5ccd55983383877709"),
    "contrast mc csv": (0, "20525eedd379616d501a0e91ad2618b6b35adf08c62b5f004393779184c9d96c"),
    "contrast mc seed json": (0, "d0007d66143c5c82c736c22a5beb9f59733a34ee86f4ce61bbd6e74d711c7ef3"),
    "contrast mc seed text": (0, "97c031b64f414e8741415551420e99ce5e64c0b2c0bcbbdd8f0508757c099d86"),
    "contrast mc seed csv": (0, "6e79d25019edfc8fda2c03959f8364b5103876ec2b0e03b58696a313e0ad280d"),
    "contrast counts json": (0, "ca1a38bf3eddeeeb38adb5b42736300d8e6282ea07f6257acd53d8a489bc5381"),
    "contrast counts text": (0, "70d45e4e451df8f76d28b1a8b54bf8dcb640aebe23187d289e70f0255ff1a120"),
    "contrast counts csv": (0, "e203020de4f011ec70eda2b2920f67d00f66980e7cb7a0b29db2ec7c5e38cbac"),
    "contrast counts plain json": (0, "6dcc6cdd78ee2c6f3354699ebcbf9c95f5af944d7b0687a56a3cb4e29d2e6ca5"),
    "contrast counts plain text": (0, "27effc7656dc7926d06fa4fa23121fac2c52c02d5ec6c81014998e56e96340f5"),
    "contrast counts plain csv": (0, "fa0c65b07fa014b0b17efad3cb2263425ea947ef5ffe3c042b2b626f56386b6e"),
    "probcheck oracle json": (0, "60b53b279507e913c4cfbc06386c012bf99dbf2bbc79aca43c8f4fe603580866"),
    "probcheck oracle text": (0, "506ff55154b7af07a2af0ce326782499856ca5d34f12fa15c5e750b532a7d9e1"),
    "probcheck mc json": (0, "1c7b290c7b90c912f039cfbd80c3e7f511678029f470746ebae45af5d180e196"),
    "probcheck mc text": (0, "6ac8452642062a01c8895e5bad5d70e89ae24c01b60a209b177b3d3b551a0180"),
    "probcheck mc seed json": (0, "a35ada6d9e6bc8a4601050ba0b9144c5aabf40e2962e4a7cf54afb20d2fb56cc"),
    "probcheck mc seed text": (0, "0629f025b4b90c902a0992c28a712aa6d3ea16d75b28f2bbf6666d4e582a9b2c"),
    "probcheck no neighborhood json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate json": (0, "4234288607255b151b36b5936ef90e2490599f7f7c3795437c5d7a4133d93dfc"),
    "simulate text": (0, "fe793038034de15f83fe206dfd64d74dca2724aeadffcd2c2477eb0d4089698c"),
    "simulate csv": (0, "d9c336404e29b817c571afc095c8c41c66b401eda14f5cfc6e504199559e61b3"),
    "simulate seed json": (0, "79e41f319033dc35c4c6808d73e80e2ede5aaf95ae8a742e344d11cce4cb62b7"),
    "simulate seed text": (0, "6895c9c33b57bbfea51cf96dbb0e8e8cc65b636b2a5144271cad03481b834cc0"),
    "simulate seed csv": (0, "6ba3edd45205eb088bdfbc89a84e7339bfdf95b3a6eaa1f311d8e7f45e479b1f"),
    "simulate params json": (0, "6598ffdb7196159ff1bfd95924634b0a6b4a5776148421bbd5b66546aaec829c"),
    "simulate params text": (0, "dab826ce27036ec8077f07b58c12ece5bdf464dbb4f2009aaf4e592b2e0e65e9"),
    "simulate params csv": (0, "5b5438f88c76e289e20151e7cf8038dd72a0b70ec36e14f70897fbc18f46ba35"),
    "simulate counts json": (0, "2ba2543d9b81e50c0a9d07f77d26df42b3068f64aa223c310a6df041aae18c8f"),
    "simulate two_cluster json": (0, "2831c97a6fd1af67e0920a2640b645c9a0f3b54e2f3d906da353f9bee763d533"),
    "simulate two_cluster text": (0, "53a257441e738c56417c31402f2f9ea56f743470164da477af9889515d4ab4c5"),
    "simulate two_cluster csv": (0, "40d080a60d60e68c601d0f30825e219a0948d13700b40a5e53de30365820068d"),
    "simulate adversarial json": (0, "942949f8d6e380ffcd825cbd0018bcb230595b90f5535a9147f553714ed0c79b"),
}

CASES = [(label, fmt) for label, (_, formats) in CALLS.items() for fmt in formats]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, content in FILES.items():
        (path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def _run_argv(argv, capsys):
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _run(fixture_dir, label, fmt, capsys):
    argv = [str(fixture_dir / word) if (fixture_dir / word).exists() else word for word in CALLS[label][0].split()]
    return _run_argv(argv + ["--format", fmt], capsys)


@pytest.mark.parametrize("label,fmt", CASES, ids=[f"{label} {fmt}" for label, fmt in CASES])
def test_output_matches_recorded_sha256(fixture_dir, capsys, label, fmt):
    assert _run(fixture_dir, label, fmt, capsys) == RECORDED[f"{label} {fmt}"]


# file -> sha256 of each file ``simulate --config sim.json --seed 7 --out`` writes
RECORDED_OUT = {
    "coverage.csv": "6ba3edd45205eb088bdfbc89a84e7339bfdf95b3a6eaa1f311d8e7f45e479b1f",
    "coverage.json": "79e41f319033dc35c4c6808d73e80e2ede5aaf95ae8a742e344d11cce4cb62b7",
    "coverage.txt": "6895c9c33b57bbfea51cf96dbb0e8e8cc65b636b2a5144271cad03481b834cc0",
}


@pytest.mark.parametrize("fmt", ("json", "text", "csv"))
def test_simulate_out_files_match_recorded_sha256(fixture_dir, tmp_path, capsys, fmt):
    argv = ["simulate", "--config", str(fixture_dir / "sim.json"), "--seed", "7", "--out", str(tmp_path)]
    assert _run_argv(argv + ["--format", fmt], capsys) == RECORDED[f"simulate seed {fmt}"]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == RECORDED_OUT
