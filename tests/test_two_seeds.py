"""Each ``TABLE`` command prints the same bytes under hash seeds 0 and 4242, and mutated models fail closed."""

import hashlib
import io
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lhamc.cli import main
from reference import component_to_json
from test_cli import ALIKE_LEFT, ALIKE_RIGHT, LHA_DOC, OTHER_TYPES, write_doc
from test_syncprod import no_joint_tick

ROOT = Path(__file__).resolve().parent.parent
SEEDS = ("0", "4242")
HELD = "([] <> one-down /\\ [] <> ~ one-down) -> [] <> macondo"
ODD = 'o"k\\ü'  # a state name with a quote, a backslash and a non-ASCII letter, escaped in a JSON lasso
INIT2 = "--model models/init2.json --time-bound 5"
THREE = " ".join(f"--component models/reservoir{i}.json" for i in (1, 2, 3))
REFUTED = 'check --model ring.json --formula "[] ~ one-down" --time-bound 40 --increment 1/3'


def both(*commands: str) -> list[tuple[str, str]]:
    """Each command with ``--format text``, then each with ``--format json``, nothing pinned."""
    return [(f"{command} --format {form}", "") for form in ("text", "json") for command in commands]


# (command line without "lhamc", a text its output holds or ""), run beside models/ and write_documents' files
TABLE = [
    *both(
        "simulate --model models/init2.json --time-bound 4",
        "simulate --model models/two_reservoir.json --time-bound 20 --increment 1/10",
        "simulate --model models/two_reservoir.json --time-bound 40 --increment 1/3",
        "simulate --model models/two_reservoir.json --time-bound 40 --increment 7/5",
        "search --model models/two_reservoir.json --time-bound 10 --increment 1/2",
        "search --model models/two_reservoir.json --time-bound 10 --increment 2/3",
        # an automaton search that fills its quiet stretches, and a refuted check whose 407-step lasso leaps
        "search --model models/two_reservoir.json --time-bound 40 --increment 1/10",
        'check --model models/two_reservoir.json --formula "<> false" --time-bound 40 --increment 1/10',
        f"search {INIT2}",
        f'search {INIT2} --pattern "hose=1 R1.hth=15"',
        'search --model models/init2.json --time-bound 100 --pattern "R0.hth=45 R1.hth=10 R2.hth=10" --expect-none',
        f'check {INIT2} --formula "~ [] <> macondo"',
        f'check {INIT2} --formula "[] ~ <> one-down"',
        f'check {INIT2} --formula "[] ~ <> one-down" --increment 1/3',
        # a held multi-state automaton over a ring whose hose cycles in zero time
        f'check {INIT2} --formula "{HELD}" --increment 1',
        f'check {INIT2} --formula "{HELD}" --increment 1/3',
        'product-check --left models/reservoir1.json --right models/reservoir2.json --formula "[] safe"',
        'product-check --left models/reservoir1.json --right models/reservoir2.json --formula "<> ~ safe"',
        f'product-check {THREE} --formula "[] <> safe"',
        f'product-check {THREE} --formula "[] safe"',
    ),
    # the first unknown key in document order; a set of unknown-rate's keys has one order per seed
    ("simulate --model unknown-keys.json --time-bound 3", "error: unknown key 'urgent' in locations[0]\n"),
    ("simulate --model unknown-rate.json --time-bound 3", "error: unknown key 'urgent' in locations[0]\n"),
    # a pattern's id is an ASCII decimal numeral, named by its length past the digit limit, and a pattern
    # is bound to its model: an id the ring lacks, and a ring pattern on an automaton
    (f"search {INIT2} --pattern R{'9' * 5000}.hth=1",
     "error: not a reservoir id: a numeral of 5000 digits, past the limit of 4300\n"),
    (f"search {INIT2} --pattern hose=1_0", "error: cannot read hose position in 'hose=1_0'\n"),
    (f"search {INIT2} --pattern R9.hth=*", "error: pattern mentions unknown reservoir id 9\n"),
    ("search --model models/two_reservoir.json --time-bound 5 --pattern hose=0",
     "error: reservoir-specific patterns only apply to reservoir models\n"),
    (f'check {INIT2} --formula "(p"', "error: expected 'rparen' but found 'end of input'\n"),
    (f'check {INIT2} --formula "p & q"', "error: cannot read formula at: '& q'\n"),
    ('product-check --left odd1.json --right odd2.json --formula "[] safe" --format json',
     '"state": ' + json.dumps(f"< {ODD},below >")),
    # an unbalanced ring sampled every 1/10: its run and states in closed form, and checks that leap
    *both(
        "simulate --model ring.json --time-bound 40 --increment 1/10",
        "search --model ring.json --time-bound 40 --increment 1/10",
        f'check --model ring.json --formula "{HELD}" --time-bound 40 --increment 1/10',
        'check --model ring.json --formula "[] ~ one-down" --time-bound 40 --increment 1/10',
    ),
    # refuted at 1/3, where a tick can grow the denominator, so the nested search mixes single ticks and leaps
    (f"{REFUTED} --format text", ""),
    (f"{REFUTED} --format json", '"holds": false'),
    # ("a,b", "c") and ("a", "b,c") render alike: rejected at build, also for a formula of the initial state
    ('product-check --left alike-left.json --right alike-right.json --formula "~ p"',
     "error: two component states render as '< a,b,c >'\n"),
    # seven components with no joint tick, whose search must not try every middle combination
    (f"product-check {' '.join(f'--component jt{j}.json' for j in range(7))} --formula \"[] p\"", ""),
]


def write_documents(where: Path) -> None:
    """Copy ``models/`` into ``where`` and write the table's other documents there."""
    shutil.copytree(ROOT / "models", where / "models")
    tanks = [("12", "42", "251/10", "3"), ("7", "37", "18", "2"), ("15", "45", "61/2", "4"), ("9", "39", "61/5", "1")]
    docs = {
        "unknown-keys": {**LHA_DOC, "locations": [{"name": None, "urgent": True, "flow": {}}]},
        "unknown-rate": {**LHA_DOC, "locations": [{"name": None, "urgent": True, "rate": {}}]},
        **{f"odd{i}": {"kind": "component", "states": [ODD, "below"], "initial": ODD, "rules": [
            {"label": f"fill{i}", "source": "below", "target": ODD}], "props": {f"refill{i}?": ["below"]},
            "ticks": [{"source": ODD, "target": "below", "duration": "1"}]} for i in (1, 2)},
        "ring": {"kind": "nres", "hose": {"rate": "11", "position": 2}, "reservoirs": [
            dict(zip(("id", "lower", "upper", "level", "leak"), (i, *tank))) for i, tank in enumerate(tanks)]},
        "alike-left": ALIKE_LEFT, "alike-right": ALIKE_RIGHT,
        **{f"jt{j}": component_to_json(c) for j, c in enumerate(no_joint_tick(7))},
    }
    for name, doc in docs.items():
        write_doc(where / f"{name}.json", doc)


def run(argv: list[str]) -> tuple[int, str, str]:
    """``lhamc argv`` in process as a fresh process runs it: warnings afresh, and a traceback exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)


def facts(command: str, pinned: str, reencode: bool) -> list:
    """Exit code, stdout's sha256, stderr, whether pinned is printed, and if asked, whether JSON re-encodes alike."""
    code, out, err = run(shlex.split(command))
    form = not reencode or out == json.dumps(json.loads(out), indent=2) + "\n"
    return [code, hashlib.sha256(out.encode()).hexdigest(), err, pinned in out + err, form]


def test_two_hash_seeds_print_the_same_bytes(tmp_path):
    write_documents(tmp_path)
    procs = [subprocess.Popen([sys.executable, __file__, str(half)], cwd=tmp_path, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed})
             for half, seed in enumerate(SEEDS)]
    try:
        runs = [json.loads(proc.communicate(timeout=300)[0]) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    for (command, pinned), (code, digest, err, printed, form), second in zip(TABLE, *runs, strict=True):
        assert [code, digest, err, printed] == second[:4], f"lhamc {command} differs between hash seeds {SEEDS}"
        assert "Traceback" not in err, f"lhamc {command} printed a traceback:\n{err}"
        assert form and second[4], f"lhamc {command} prints other bytes than json.dumps(indent=2) of its document"
        assert printed, f"lhamc {command} does not print {pinned!r}"


FORMULAS = ("true", "[] <> true", "~ <> false")  # each holds on every model that loads
HUGE = "a 5,000-digit numeral"  # a placeholder for one, which json.dumps cannot write
RESERVOIR1 = str(ROOT / "models" / "reservoir1.json")


def mutated(rng: random.Random, doc) -> str:
    """``doc`` as JSON text with one change: a value set to another JSON
    type, a bad rational or a 5,000-digit numeral, or a key deleted."""
    places = []  # (container, key or index)

    def walk(node):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            places.append((node, key))
            if isinstance(child, (dict, list)):
                walk(child)

    walk(doc)
    node, key = rng.choice(places)
    kind = rng.choice(("type", "rational", "numeral", "delete"))
    if kind == "delete":
        del node[key]
    else:
        node[key] = rng.choice({"type": OTHER_TYPES, "rational": ("1/0", "1.5"), "numeral": (HUGE, "9" * 5000)}[kind])
    return json.dumps(doc).replace(json.dumps(HUGE), "9" * 5000)


def test_mutated_models_fail_closed(tmp_path):
    """A seeded campaign over mutated copies of ``models/*.json``: no
    exception escapes ``main``, every exit 2 prints one ``error:`` line and
    nothing else, and ``check`` gives one exit code and one stderr whatever
    the formula."""
    rng = random.Random(38)
    models = sorted((ROOT / "models").glob("*.json"))
    outcomes = Counter()
    for n in range(200):
        doc, model = json.loads(rng.choice(models).read_text(encoding="utf-8")), tmp_path / f"{n}.json"
        command = rng.choice(("simulate", "search", "check", *["product-check"] * (doc["kind"] == "component")))
        model.write_text(mutated(rng, doc), encoding="utf-8")
        if command == "product-check":
            argvs = [[command, "--component", str(model), "--component", RESERVOIR1, "--formula", "[] <> safe"]]
        elif command == "check":
            argvs = [[command, "--model", str(model), "--time-bound", "3", "--formula", f] for f in FORMULAS]
        else:
            argvs = [[command, "--model", str(model), "--time-bound", "3"]]
        results = [run(argv) for argv in argvs]
        for argv, (code, out, err) in zip(argvs, results):
            assert "Traceback" not in err, (argv, model.read_text(encoding="utf-8"), err)
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert len({(code, err) for code, _, err in results}) == 1, (argvs, results)
        code, _, err = results[0]
        outcomes[err.splitlines()[0] if code == 2 else "accepted"] += 1
    # the campaign reaches loaders' errors all over the documents, and models that load
    assert outcomes["accepted"] > 20 and len(outcomes) > 100, outcomes


if __name__ == "__main__":
    # the seeds' stdouts are compared, so each re-encodes one half of the JSON documents
    documents = [command for command, _ in TABLE if " --format json" in command]
    mine = documents[:len(documents) // 2] if sys.argv[1] == "0" else documents[len(documents) // 2:]
    json.dump([facts(command, pinned, command in mine) for command, pinned in TABLE], sys.stdout)
