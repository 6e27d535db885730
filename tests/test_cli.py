import io
import json

import pytest

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
    ])
    def test_bad_diagram_exit_one(self, command, diagram, named):
        code, text = run_cli(command, "--diagram", diagram)
        assert code == 1
        assert text.startswith("error: ")
        assert named in text

    def test_spec_partitions_accepted(self):
        code, text = run_cli("k0", "--algebra", '{"blocks":[3]}',
                             "--method", "diagram",
                             "--spec", '{"partitions": [[[0, 1], [2]]]}')
        assert code == 0
        assert text.splitlines()[0] == "Z"


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
