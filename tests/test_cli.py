import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ncspectrum import cli
from ncspectrum.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestK0Command:
    def test_standard(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[2,3]}',
                             "--method", "standard")
        assert code == 0
        assert text.splitlines()[0] == "Z^2"

    def test_diagram_scalars(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[1]}',
                             "--method", "diagram")
        assert code == 0
        assert text.splitlines()[0] == "Z"

    def test_diagram_matches_standard(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[2]}',
                             "--method", "diagram", "--stabilize", "2")
        assert code == 0
        assert text.splitlines()[0] == "Z"

    def test_json_format(self):
        code, text = run_cli("--format", "json", "k0",
                             "--algebra", '{"blocks":[1,2]}',
                             "--method", "standard")
        assert code == 0
        data = json.loads(text)
        assert data["group"] == "Z^2"

    def test_invalid_algebra(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[0]}')
        assert code == 1
        assert "error" in text


class TestInvalidInput:
    @pytest.mark.parametrize("algebra", [
        '{"blocks":[2.5]}', '{"blocks":"ab"}', '{"blocks":[true]}',
        '{"blocks":[0]}',
    ])
    def test_bad_blocks_exit_one(self, algebra):
        code, text = run_cli("k0", "--algebra", algebra)
        assert code == 1
        assert text.startswith("error: ")

    def test_negative_random_homs_exit_one(self):
        code, text = run_cli("verify", "theorem1",
                             "--algebra", '{"blocks":[1]}',
                             "--random-homs", "-3")
        assert code == 1
        assert text.startswith("error: ")
        assert "--random-homs" in text

    @pytest.mark.parametrize("key", ["full_partition_limit",
                                     "rotation_edge_budget"])
    def test_retired_spec_key_exit_one(self, key):
        code, text = run_cli("k0", "--algebra", '{"blocks":[2]}',
                             "--method", "diagram",
                             "--spec", json.dumps({key: 6}))
        assert code == 1
        assert text.startswith("error: ")
        assert key in text

    @pytest.mark.parametrize("field", [
        '"multiplicity":[[2.5]]', '"multiplicity":[[true]]',
        '"multiplicity":[["2"]]', '"multiplicity":2',
        '"multiplicity":[[2]],"assignment":[[[0,0],[0,1.5]]]',
        '"multiplicity":[[2]],"assignment":[[[0,0],[false,1]]]',
        '"multiplicity":[[2]],"assignment":[[[0,0],[1,0]]]',
        '"multiplicity":[[2]],"assignment":[[[0,0],[0,0]]]',
        '"multiplicity":[[2]],"assignment":[[[0,0]]]',
        '"multiplicity":[[2]],"unital":"yes"',
    ])
    def test_bad_hom_exit_one(self, field):
        hom = ('{"domain":{"blocks":[1]},"codomain":{"blocks":[2]},'
               + field + '}')
        code, text = run_cli("verify", "theorem1",
                             "--algebra", '{"blocks":[1]}', "--hom", hom)
        assert code == 1
        assert text.startswith("error: ")

    def test_hom_with_explicit_assignment_accepted(self):
        hom = ('{"domain":{"blocks":[1]},"codomain":{"blocks":[2]},'
               '"multiplicity":[[2]],"assignment":[[[0,1],[0,0]]]}')
        code, text = run_cli("verify", "theorem1",
                             "--algebra", '{"blocks":[1]}', "--hom", hom)
        assert code == 0
        assert "naturality square: PASS" in text

    @pytest.mark.parametrize("command,diagram,named", [
        ("colimit", '{"nodes":[{"id":"a","ngens":1}],"edges":[{"source":"a",'
                    '"target":"zz","images":[[1]]}]}', "'zz'"),
        ("colimit", '{"nodes":[{"id":"a","ngens":1}],"edges":[{"id":"u",'
                    '"source":"yy","target":"a","images":[[1]]}]}', "'yy'"),
        ("colimit", '{"nodes":[{"id":"a","ngens":1}],"edges":[{"id":"u",'
                    '"source":"a","target":"a"}]}', "'u'"),
        ("colimit", '{"nodes":[{"id":"a","ngens":1}],"edges":[{"id":"u",'
                    '"source":"a","target":"a","images":[{"0":1}]}]}', "'u'"),
        ("colimit", '{"nodes":[{"id":"a","ngens":1}],"edges":[{"id":"u",'
                    '"source":"a","target":"a","images":[[true]]}]}', "'u'"),
        ("colimit", '{"nodes":[{"ngens":1}],"edges":[]}', '"id"'),
        ("colimit", '{"nodes":[{"id":"a"}],"edges":[]}', '"ngens"'),
        ("limit", '{"nodes":[{"id":"a","ngens":1}],"edges":[{"source":"a",'
                  '"target":"zz","images":[[1]]}]}', '"points"'),
        ("limit", '{"nodes":[{"id":"a","points":["x"]}],"edges":[{"source":'
                  '"a","target":"zz","assignment":{"x":"x"}}]}', "'zz'"),
        ("limit", '{"nodes":[{"id":"a","points":["x"]}],"edges":[{"id":"i",'
                  '"source":"a","target":"a"}]}', "'i'"),
        ("limit", '{"nodes":[{"id":"a","points":["x"]}],"edges":[{"id":"i",'
                  '"source":"a","target":"a","assignment":["x"]}]}', "'i'"),
        ("colimit", '{"nodes":[{"id":"a","ngens":1.7}],"edges":[]}', "ngens"),
        ("colimit", '{"nodes":[{"id":"a","ngens":true}],"edges":[]}', "ngens"),
        ("colimit", '{"nodes":[{"id":"a","ngens":-1}],"edges":[]}', "ngens"),
        ("colimit", '{"nodes":[{"id":"a","ngens":2,"relations":[[1.5,0]]}],'
                    '"edges":[]}', "relations"),
        ("colimit", '{"nodes":[{"id":"a","ngens":1,"relations":5}],'
                    '"edges":[]}', "relations"),
        ("limit", '{"nodes":[{"id":"a","points":5}],"edges":[]}', "points"),
    ])
    def test_bad_diagram_exit_one(self, command, diagram, named):
        code, text = run_cli(command, "--diagram", diagram)
        assert code == 1
        assert text.startswith("error: ")
        assert named in text

    @pytest.mark.parametrize("matrix", [
        "[[1.5,2]]", '[["3"]]', "[[true,2]]", "[]", "[[1],2]",
    ])
    def test_bad_integer_matrix_exit_one(self, matrix):
        code, text = run_cli("snf", "--matrix", matrix)
        assert code == 1
        assert text.startswith("error: ")

    @pytest.mark.parametrize("payload, named", [
        ("3", '"choice"'),
        ('{"algebra":{"blocks":[2]},"choice":[1]}', "choice"),
        ('{"algebra":{"blocks":[2]},"choice":{"d:0,1":["x"]}}', "'d:0,1'"),
        ('{"algebra":{"blocks":[2]},"choice":{"d:0,1":5}}', "'d:0,1'"),
        ('{"algebra":{"blocks":[2]},"choice":{"d:0,1":[true]}}', "'d:0,1'"),
    ])
    def test_bad_partial_ideal_file_exit_one(self, payload, named, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(payload)
        code, text = run_cli("partial-ideal", "check", "--file", str(path))
        assert code == 1
        assert text.startswith("error: ")
        assert named in text

    @pytest.mark.parametrize("label", [5, ["x"], None, "a\nb", "tab\there"])
    def test_bad_spec_label_exit_one(self, label):
        code, text = run_cli("ideals", "--algebra", '{"blocks":[2]}',
                             "--spec", json.dumps({"label": label}))
        assert code == 1
        assert text.startswith("error: ")
        assert "label" in text
        assert len(text.splitlines()) == 1

    @pytest.mark.parametrize("entry, named", [
        ("true", "True"), ("1.0", "1.0"), ('"1/0"', "'1/0'"),
        ('"nan"', "'nan'"), ('["1", false]', "False"), ("[1]", "[1]"),
    ])
    def test_bad_spec_scalar_exit_one(self, entry, named):
        spec = ('{"rotations":[{"parts":[[[%s,0],[0,1]]]}]}' % entry)
        code, text = run_cli("k0", "--algebra", '{"blocks":[1]}',
                             "--method", "diagram", "--stabilize", "2",
                             "--spec", spec)
        assert code == 1
        assert text.startswith("error: ")
        assert named in text

    def test_matrix_rows_must_be_lists(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[1]}',
                             "--method", "diagram", "--stabilize", "2",
                             "--spec", '{"rotations":[{"parts":[[1,0]]}]}')
        assert code == 1
        assert text.startswith("error: ")

    def test_bool_identity_rotation_rejected(self):
        spec = '{"rotations":[{"parts":[[[true,false],[false,true]]]}]}'
        code, text = run_cli("k0", "--algebra", '{"blocks":[1]}',
                             "--method", "diagram", "--stabilize", "2",
                             "--spec", spec)
        assert code == 1
        assert text.startswith("error: ")

    def test_spec_partitions_accepted(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[3]}',
                             "--method", "diagram",
                             "--spec", '{"partitions": [[[0, 1], [2]]]}')
        assert code == 0
        assert text.splitlines()[0] == "Z"

    def test_hom_domain_must_match_algebra(self):
        hom = ('{"domain":{"blocks":[2]},"codomain":{"blocks":[2]},'
               '"multiplicity":[[1]]}')
        code, text = run_cli("--format", "json", "verify", "theorem1",
                             "--algebra", '{"blocks":[1]}', "--hom", hom)
        assert code == 1
        assert text.startswith("error: ")
        assert "[2]" in text and "[1]" in text
        assert "naturality" not in text

    def test_hom_with_bad_spec_key_exit_one(self):
        hom = ('{"domain":{"blocks":[1]},"codomain":{"blocks":[2]},'
               '"multiplicity":[[2]]}')
        code, text = run_cli("verify", "theorem1", "--algebra",
                             '{"blocks":[1]}', "--hom", hom,
                             "--spec", '{"bogus": 1}')
        assert code == 1
        assert text.startswith("error: ")
        assert "'bogus'" in text
        assert "naturality" not in text

    def test_hom_spec_reaches_the_naturality_square(self, monkeypatch):
        seen = []
        real = cli.verify_naturality_square

        def spy(phi, spec=None, m=1):
            seen.append((spec, m))
            return real(phi, spec, m=m)

        monkeypatch.setattr(cli, "verify_naturality_square", spy)
        hom = ('{"domain":{"blocks":[1]},"codomain":{"blocks":[2]},'
               '"multiplicity":[[2]]}')
        code, text = run_cli("verify", "theorem1", "--algebra",
                             '{"blocks":[1]}', "--hom", hom,
                             "--stabilize", "2",
                             "--spec", '{"label": "mine"}')
        assert code == 0
        assert "naturality square: PASS" in text
        [(spec, m)] = seen
        assert m == 2
        assert spec.label == "mine"
        assert spec.rotations
        assert {r.algebra.blocks for r in spec.rotations} == {(2,)}

    def test_spec_needs_the_diagram_method(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[2]}',
                             "--method", "standard",
                             "--spec", '{"partitions": []}')
        assert code == 1
        assert text.startswith("error: ")
        assert "--spec" in text and "--method diagram" in text

    def test_directory_argument_exit_one(self, tmp_path):
        code, text = run_cli("k0", "--algebra", str(tmp_path))
        assert code == 1
        assert text.startswith("error: ")
        assert str(tmp_path) in text

    def test_non_utf8_file_exit_one(self, tmp_path):
        path = tmp_path / "algebra.json"
        path.write_bytes(b'{"blocks": [\xff]}')
        code, text = run_cli("k0", "--algebra", str(path))
        assert code == 1
        assert text.startswith("error: ")
        assert str(path) in text


class TestVerifyCommand:
    def test_theorem1_pass(self):
        code, text = run_cli("verify", "theorem1",
                             "--algebra", '{"blocks":[2]}')
        assert code == 0
        assert "PASS" in text

    def test_naturality_with_hom(self, tmp_path):
        hom = {"domain": {"blocks": [1]}, "codomain": {"blocks": [2]},
               "multiplicity": [[2]], "unital": True}
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(hom))
        code, text = run_cli("verify", "theorem1",
                             "--algebra", '{"blocks":[1]}',
                             "--hom", str(path))
        assert code == 0
        assert "naturality square: PASS" in text

    def test_random_homs_deterministic(self):
        args = ("verify", "theorem1", "--algebra", '{"blocks":[1]}',
                "--random-homs", "4")
        code1, text1 = run_cli("--seed", "5", *args)
        code2, text2 = run_cli("--seed", "5", *args)
        assert code1 == code2 == 0
        assert text1 == text2

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("NC_SPECTRUM_SEED", "9")
        code, text = run_cli("--seed", "5", "verify", "theorem1",
                             "--algebra", '{"blocks":[1]}',
                             "--random-homs", "2")
        assert code == 0
        assert "seed 9" in text

    def test_insufficient_spec_exits_two(self):
        code, text = run_cli("verify", "theorem1",
                             "--algebra", '{"blocks":[2]}',
                             "--spec", '{"rotations": []}')
        assert code == 2
        assert "FAIL" in text


class TestColimitCommand:
    def test_pushout(self, tmp_path):
        diagram = {
            "variance": "covariant",
            "nodes": [{"id": "a", "ngens": 1},
                      {"id": "b", "ngens": 1},
                      {"id": "c", "ngens": 1}],
            "edges": [{"id": "u", "source": "a", "target": "b",
                       "images": [[2]]},
                      {"id": "v", "source": "a", "target": "c",
                       "images": [[2]]}],
        }
        path = tmp_path / "pushout.json"
        path.write_text(json.dumps(diagram))
        code, text = run_cli("colimit", "--diagram", str(path))
        assert code == 0
        assert text.splitlines()[0] == "Z ⊕ Z/2"


class TestLimitCommand:
    def test_two_point_collapse(self):
        diagram = json.dumps({
            "variance": "contravariant",
            "nodes": [{"id": "u", "points": ["q"]},
                      {"id": "v", "points": ["x", "y"]}],
            "edges": [{"id": "i", "source": "u", "target": "v",
                       "assignment": {"x": "q", "y": "q"}}],
        })
        code, text = run_cli("limit", "--diagram", diagram)
        assert code == 0
        assert "4 elements" in text


class TestIdealsCommand:
    def test_m2(self):
        code, text = run_cli("ideals", "--algebra", '{"blocks":[2]}')
        assert code == 0
        assert "t_tilde lattice: 2 elements" in text
        assert "lattice isomorphism: PASS" in text


class TestPartialIdealCommand:
    def test_reconstructible(self):
        payload = json.dumps({
            "algebra": {"blocks": [2]},
            "choice": {},
        })
        code, text = run_cli("partial-ideal", "check", "--file", payload)
        assert code == 0
        assert "compatible: yes" in text
        assert "blocks []" in text

    def test_broken_choice_exits_two(self):
        payload = json.dumps({
            "algebra": {"blocks": [2]},
            "choice": {"d:0|1": [0]},
        })
        code, text = run_cli("partial-ideal", "check", "--file", payload)
        assert code == 2
        assert "rotation-fixed: no" in text


class TestSnfCommand:
    def test_divisibility_example(self):
        code, text = run_cli("snf", "--matrix", "[[2,4],[6,8]]")
        assert code == 0
        assert text.splitlines()[0] == "D = [[2, 0], [0, 4]]"

    def test_json_round_trip(self):
        code, text = run_cli("--format", "json", "snf",
                             "--matrix", "[[0]]")
        assert code == 0
        data = json.loads(text)
        assert data["D"] == [[0]]


def test_parser_is_built_once(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        run_cli("snf", "--matrix", "[[2]]")
        run_cli("--format", "json", "snf", "--matrix", "[[3]]")
    finally:
        cli.build_parser.cache_clear()
    assert built.count("ncspectrum") == 1


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("k0", "--algebra", '{"blocks":[2]}', "--method", "diagram"),
        ("ideals", "--algebra", '{"blocks":[2]}'),
        ("--format", "json", "verify", "theorem1",
         "--algebra", '{"blocks":[1,1]}'),
    ])
    def test_byte_identical(self, argv):
        code1, text1 = run_cli(*argv)
        code2, text2 = run_cli(*argv)
        assert code1 == code2
        assert text1 == text2


@pytest.mark.parametrize("seed", ["7"])
def test_random_homs_are_byte_identical_across_processes(seed):
    """Two processes with different string hash seeds print the same
    bytes for the same --seed."""
    argv = [sys.executable, "-m", "ncspectrum", "--seed", seed, "verify",
            "theorem1", "--algebra", '{"blocks":[1,2]}', "--random-homs", "3"]
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        env.pop("NC_SPECTRUM_SEED", None)
        runs.append(subprocess.run(argv, env=env, capture_output=True,
                                   timeout=60))
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert f"3 homs, seed {seed}): PASS".encode() in runs[0].stdout


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader that closes the pipe early, as `| head -1` does, gets
    exit 1 and no traceback: about 100 KB of k0 output overfills the
    pipe, so the writer meets the closed end."""
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"blocks": [1] * 5000}))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncspectrum", "k0", "--algebra", str(algebra)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert first == b"Z^5000\n"
    assert proc.returncode == 1
    assert b"Traceback" not in err, err.decode()


_Z = "0"
# two Pythagorean rotations and a permutation with phase i, all given as
# dense unitaries of the stabilized M_4
DENSE_SPEC = {
    "label": "dense",
    "rotations": [
        {"parts": [[["3/5", "4/5", _Z, _Z], ["-4/5", "3/5", _Z, _Z],
                    [_Z, _Z, "1", _Z], [_Z, _Z, _Z, "1"]]]},
        {"parts": [[["1", _Z, _Z, _Z], [_Z, _Z, [_Z, "1"], _Z],
                    [_Z, [_Z, "1"], _Z, _Z], [_Z, _Z, _Z, "1"]]]},
        {"parts": [[["1", _Z, _Z, _Z], [_Z, "1", _Z, _Z],
                    [_Z, _Z, "5/13", [_Z, "12/13"]],
                    [_Z, _Z, [_Z, "12/13"], "5/13"]]]},
    ],
}
_COARSE = ("generator class is not identified with its rank class; "
           "the subdiagram sample is too coarse")
_CLASSES = ["Z^3", "block 0: class {'1': 1}", "block 1: class {'3': 1}",
            "block 2: class {'7': 1}"]
_THEOREM1_PASS = {"error": None, "k0": [2, []], "ktilde": [2, []], "m": 2,
                  "ok": True, "witness": None}

# a three-node chain of spaces: a <- b <- c, with b and c splitting points
CHAIN = json.dumps({
    "variance": "contravariant",
    "nodes": [{"id": "a", "points": ["q"]}, {"id": "b", "points": ["x", "y"]},
              {"id": "c", "points": ["s", "t", "u"]}],
    "edges": [{"id": "i", "source": "a", "target": "b",
               "assignment": {"x": "q", "y": "q"}},
              {"id": "j", "source": "b", "target": "c",
               "assignment": {"s": "x", "t": "x", "u": "y"}}],
})
_CHAIN_FAMILIES = [
    {"a": [], "b": [], "c": []},
    {"a": ["q"], "b": ["x"], "c": ["s"]},
    {"a": ["q"], "b": ["x"], "c": ["t"]},
    {"a": ["q"], "b": ["y"], "c": ["u"]},
    {"a": ["q"], "b": ["x"], "c": ["s", "t"]},
    {"a": ["q"], "b": ["x", "y"], "c": ["s", "u"]},
    {"a": ["q"], "b": ["x", "y"], "c": ["t", "u"]},
    {"a": ["q"], "b": ["x", "y"], "c": ["s", "t", "u"]},
]
_CHAIN_TEXT = (["limit lattice: 8 elements"]
               + [str(f) for f in _CHAIN_FAMILIES])
# a choice that one swap moves, and one over the dense rotations that
# breaks an inclusion into a rotated sheet
SWAPPED_CHOICE = json.dumps({"algebra": {"blocks": [2]},
                             "choice": {"d:0|1": [0]}})
DENSE_CHOICE = json.dumps({"algebra": {"blocks": [4]}, "spec": DENSE_SPEC,
                           "choice": {"d:0|1|2|3": [0, 1, 2, 3],
                                      "d:0,1,2,3": [0]}})
_DENSE_CHOICE_TEXT = ["compatible: no", "rotation-fixed: no",
                      "witness edge: i:d:0,1,2,3=>r0:d:0|1|2|3",
                      "witness rotation edge: t0:d:0|1|2|3"]

# (argv, exit code, text lines or the JSON object printed); "SPEC" stands
# for a file holding DENSE_SPEC
GOLDEN = [
    (("k0", "--algebra", '{"blocks":[1,2,3]}', "--method", "diagram",
      "--stabilize", "2"), 0, _CLASSES),
    (("--format", "json", "k0", "--algebra", '{"blocks":[1,2,3]}',
      "--method", "diagram", "--stabilize", "2"), 0,
     {"classes": [{"block": 0, "class": {"1": 1}},
                  {"block": 1, "class": {"3": 1}},
                  {"block": 2, "class": {"7": 1}}],
      "group": "Z^3", "text": _CLASSES}),
    (("verify", "theorem1", "--algebra", '{"blocks":[2]}',
      "--random-homs", "20"), 0,
     ["theorem1 (m=2): PASS", "random naturality (20 homs, seed 0): PASS"]),
    (("--format", "json", "verify", "theorem1", "--algebra",
      '{"blocks":[2,3]}', "--random-homs", "20"), 0,
     {"algebra": {"blocks": [2, 3]},
      "random_naturality": {"count": 20, "failures": [], "seed": 0},
      "text": ["theorem1 (m=2): PASS",
               "random naturality (20 homs, seed 0): PASS"],
      "theorem1": _THEOREM1_PASS}),
    (("ideals", "--algebra", '{"blocks":[2,3]}'), 0,
     ["total ideals: 4", "t_tilde lattice: 4 elements",
      "lattice isomorphism: PASS", "partial-ideal round trip: PASS",
      "spec: default(rotations=[swap[b0:0,1],pyth[b0],swap[b1:0,1],"
      "cycle[b1],pyth[b1]], partitions=[])"]),
    (("k0", "--algebra", '{"blocks":[2]}', "--method", "diagram",
      "--stabilize", "2", "--spec", "SPEC"), 0,
     ["Z^3", "block 0: class {'1': 1}"]),
    (("ideals", "--algebra", '{"blocks":[4]}', "--spec", "SPEC"), 2,
     ["total ideals: 2", "t_tilde lattice: 8 elements",
      "lattice isomorphism: FAIL", "partial-ideal round trip: FAIL",
      "spec: dense(rotations=[u0,u1,u2], partitions=[])",
      "witness: {'family': (frozenset({'p0'}), frozenset({'p0'}), "
      "frozenset({'p0'}), frozenset({'p0'})), 'failure': 'candidate "
      "blocks [0] restrict to [0] but the choice is []', 'node': "
      "'d:0,1,2,3'}"]),
    (("--format", "json", "verify", "theorem1", "--algebra",
      '{"blocks":[2]}', "--spec", "SPEC"), 2,
     {"algebra": {"blocks": [2]},
      "text": ["theorem1 (m=2): FAIL", "witness: " + _COARSE],
      "theorem1": {"error": _COARSE, "k0": [1, []], "ktilde": [], "m": 2,
                   "ok": False,
                   "witness": {"generator": ["d:0,1,2,3", 0],
                               "rank_vector": [4]}}}),
    (("limit", "--diagram", CHAIN), 0, _CHAIN_TEXT),
    (("--format", "json", "limit", "--diagram", CHAIN), 0,
     {"families": _CHAIN_FAMILIES, "size": 8, "text": _CHAIN_TEXT}),
    (("partial-ideal", "check", "--file", SWAPPED_CHOICE), 2,
     ["compatible: yes", "rotation-fixed: no",
      "witness rotation edge: t0:d:0|1",
      "reconstruction failed at node d:0,1: candidate blocks [0] restrict "
      "to [0] but the choice is []"]),
    (("partial-ideal", "check", "--file", DENSE_CHOICE), 2,
     _DENSE_CHOICE_TEXT),
    (("--format", "json", "partial-ideal", "check", "--file", DENSE_CHOICE),
     2, {"compatibility_witness": {"edge": "i:d:0,1,2,3=>r0:d:0|1|2|3",
                                   "expected": []},
         "compatible": False, "rotation_fixed": False,
         "rotation_witness": {"edge": "t0:d:0|1|2|3",
                              "expected": [0, 1, 2, 3]},
         "text": _DENSE_CHOICE_TEXT}),
]
# the long inline JSON arguments, by name in test ids
_ARG_NAMES = {CHAIN: "CHAIN", SWAPPED_CHOICE: "SWAPPED_CHOICE",
              DENSE_CHOICE: "DENSE_CHOICE"}


class TestGoldenOutput:
    """The exact output of README-style commands, as the Fraction-pair
    scalars printed it.  TestDeterminism compares two runs of one build;
    this pins the bytes across builds."""

    @pytest.mark.parametrize("argv, code, want", GOLDEN,
                             ids=[" ".join(_ARG_NAMES.get(a, a) for a in g[0])
                                  for g in GOLDEN])
    def test_output_is_pinned(self, argv, code, want, tmp_path):
        spec = tmp_path / "dense.json"
        spec.write_text(json.dumps(DENSE_SPEC))
        got_code, text = run_cli(*(str(spec) if a == "SPEC" else a
                                   for a in argv))
        if isinstance(want, dict):
            want = json.dumps(want, sort_keys=True, indent=2).splitlines()
        assert (got_code, text) == (code, "".join(
            line + "\n" for line in want))
