"""The package surface and which processes load numpy.

Package attributes load their submodule on first use, and the CLI imports
per subcommand, so the grammar and counting halves start without numpy.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import gramsem
from gramsem.cli import main

# every name the package exported when it imported each module eagerly,
# by the module that defines or re-exports it
EXPORTS = {
    "corpus": "ContextConfig CooccurrenceCounts Lexicon LexiconFormatError "
              "build_noun_vector count_cooccurrence export_vectors_tsv "
              "load_lexicon save_lexicon tokenize",
    "functor": "LexiconEntry NoParseError PrellerWitness SentenceAnalysis "
               "UnassignedTypeError UnknownWordError enumerate_analyses "
               "identity_verb lift_reduction preller_obstruction "
               "sentence_meaning spaces_of",
    "linalg": "ContractionPlan Tensor VectorSpace apply_epsilon contract "
              "make_eta process_to_state scalar state_to_process "
              "tensor_product yanking_check",
    "monotone": "MonotoneMap SearchRadiusError galois_check "
                "monotone_left_dual monotone_right_dual",
    "pregroup": "BasicType CompoundType Cup ReductionDiagram SimpleType "
                "TypeSyntaxError adjoint_of can_contract enumerate_reductions "
                "iter_reductions parse_type_expr",
}
NAMES = {name for names in EXPORTS.values() for name in names.split()}
SRC = Path(gramsem.__file__).parents[1]

# runs gramsem.cli.main in a fresh interpreter and reports a loaded numpy
# on stderr, after whatever the command itself wrote there
PROBE = ("import sys; from gramsem.cli import main; code = main(sys.argv[1:]); "
         "print('numpy loaded' if 'numpy' in sys.modules else '', "
         "file=sys.stderr, end=''); sys.exit(code)")


def _fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestSurface:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_their_submodule_objects(self, module):
        home = import_module(f"gramsem.{module}")
        for name in EXPORTS[module].split():
            assert getattr(gramsem, name) is getattr(home, name), name

    def test_star_import_binds_the_exports(self):
        namespace = {}
        exec("from gramsem import *", namespace)
        assert set(namespace) - {"__builtins__"} == NAMES
        assert set(gramsem.__all__) == NAMES

    def test_dir_lists_the_exports(self):
        assert NAMES <= set(dir(gramsem))

    def test_unknown_attribute_raises_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            gramsem.no_such_name


class TestStartup:
    def test_import_gramsem_leaves_numpy_out(self):
        done = _fresh("-c", "import sys, gramsem; "
                            "print('numpy' in sys.modules, gramsem.__version__)")
        assert (done.returncode, done.stdout, done.stderr) == (0, "False 0.1.0\n", "")

    def test_reduce_leaves_numpy_out(self, capsys):
        argv = ["reduce", "n n^r s n^l n", "s", "--json"]
        assert main(argv) == 0
        done = _fresh("-c", PROBE, *argv)
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, capsys.readouterr().out, "")

    def test_verify_galois_leaves_numpy_out(self, capsys):
        # the galois suite needs only monotone; the other suites' imports
        # are their own
        argv = ["verify", "galois", "--window=-5..5"]
        assert main(argv) == 0
        done = _fresh("-c", PROBE, *argv)
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, capsys.readouterr().out, "")

    def test_vectors_leaves_numpy_out(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("Sweet banana, sweet green apple.", encoding="utf-8")
        contexts = tmp_path / "ctx.txt"
        contexts.write_text("sweet\ngreen\n", encoding="utf-8")
        argv = ["vectors", str(corpus), "--contexts", str(contexts)]
        assert main(argv) == 0
        done = _fresh("-c", PROBE, *argv)
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, capsys.readouterr().out, "")

    @pytest.mark.parametrize("argv", [
        ["meaning", "bananas", "are", "fruit", "--json"],
        ["verify", "yanking", "--dims", "1..3"],
        ["demo"],
    ], ids=lambda argv: argv[0])
    def test_tensor_commands_run_in_a_fresh_process(self, capsys, argv):
        assert main(argv) == 0
        done = _fresh("-c", PROBE, *argv)
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, capsys.readouterr().out, "numpy loaded")
