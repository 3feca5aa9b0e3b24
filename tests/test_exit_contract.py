"""The exit-code contract of ``train``, ``score``, ``eval`` and ``sweep``
under mutated input files.

Each example mutates one byte-level copy of a small valid input and runs
one command in-process. Whatever the mutation, the command exits 0 or 2
without an exception or a traceback, leaves its inputs as they were, writes
nothing when it exits 2, and writes only finite numbers when it exits 0.
A numpy RuntimeWarning is an error under this suite's settings, so warning
text fails an example too.
"""
import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plda_local import cli
from plda_local.data_model import read_dataset, write_dataset
from plda_local.eval_harness import generate_trials, write_key


def run(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs of every command: a dim-4 corpus, a second corpus for
    local labels, an enroll/test split with a key, and a model trained on
    the corpus."""
    d = tmp_path_factory.mktemp("inputs")
    files = {k: d / f"{k}.csv" for k in ("corpus", "local", "enroll", "test", "key")}
    files["model"] = d / "model.plda"
    assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 15, "--slots", 2,
               "--utts", 2, "--recurrence", 0.2, "--seed", 5, "--out", files["corpus"]) == 0
    assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 8, "--slots", 2,
               "--utts", 2, "--seed", 9, "--out", files["local"]) == 0
    assert run("train", "--data", files["corpus"], "--labels", "global", "--q", 2,
               "--iters", 3, "--seed", 0, "--model", files["model"]) == 0
    ev = d / "eval.csv"
    assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 6, "--utts", 3,
               "--seed", 7, "--out", ev) == 0
    data = read_dataset(ev)
    first = {}
    for u, s in zip(data.utt_ids, data.global_spks):
        first.setdefault(s, u)
    write_dataset(data.subset(first.values()), files["enroll"])
    test = data.subset(set(data.utt_ids) - set(first.values()))
    write_dataset(test, files["test"])
    write_key(generate_trials(sorted(first), test), files["key"])
    return {k: p.read_bytes() for k, p in files.items()}


# command -> (its input files, its output files)
COMMANDS = {
    "train": (("corpus",), ("model.out",)),
    "score": (("model", "enroll", "test"), ("scores.out",)),
    "eval": (("model", "enroll", "test", "key"), ("report.out", "scores.out")),
    "sweep": (("corpus", "local", "enroll", "test"), ("grid.out",)),
}
CORPORA = {"corpus", "local", "enroll", "test"}
VALUES = ("1e308", "-1e308", "nan", "inf", "5e-324", "1e999", "1_0", "-", "")
# a header value is one that int() refuses, so no header allocates from it
HEADER_VALUES = tuple(v for v in VALUES if v != "1_0")
METRICS = {"eer", "threshold", "n_target", "n_nontarget"}


def argv(command, p):
    if command == "train":
        return ["train", "--data", p["corpus"], "--labels", "local", "--q", 2,
                "--iters", 2, "--seed", 1, "--model", p["model.out"]]
    if command == "sweep":
        return ["sweep", "--data", f"{p['corpus']},{p['local']}", "--enroll", p["enroll"],
                "--test", p["test"], "--grid-global", "0,8", "--grid-local", 8, "--q", 2,
                "--iters", 2, "--seed", 1, "--report", p["grid.out"]]
    args = [command, "--model", p["model"], "--enroll", p["enroll"], "--test", p["test"]]
    if command == "eval":
        args += ["--key", p["key"], "--report", p["report.out"]]
    return args + ["--scores", p["scores.out"]]


def mutate(data: bytes, mutation) -> bytes:
    kind, *at = mutation
    if kind == "truncate":
        return data[:at[0] % (len(data) + 1)]
    if kind == "flip":
        i = at[0] % len(data)
        return data[:i] + bytes([data[i] ^ at[1]]) + data[i + 1:]
    lines = data.split(b"\n")
    if kind == "duplicate":
        i = at[0] % len(lines)
        return b"\n".join(lines[:i + 1] + lines[i:])
    if kind == "scale":  # the components of one corpus row, times 1e200
        rows = [i for i, line in enumerate(lines) if line.count(b",") > 3]
        i = rows[at[0] % len(rows)]
        fields = lines[i].split(b",")
        lines[i] = b",".join(fields[:4] + [repr(float(x) * 1e200).encode()
                                           for x in fields[4:]])
        return b"\n".join(lines)
    line, field, value = at  # kind == "field"
    i = line % len(lines)
    if lines[i].startswith(b"#"):  # the value of one key=value token
        tokens = lines[i].split(b" ")
        keyed = [j for j, t in enumerate(tokens) if b"=" in t]
        j = keyed[field % len(keyed)]
        tokens[j] = tokens[j].split(b"=")[0] + b"=" + HEADER_VALUES[
            VALUES.index(value) % len(HEADER_VALUES)].encode()
        lines[i] = b" ".join(tokens)
    else:
        fields = lines[i].split(b",")
        fields[field % len(fields)] = value.encode()
        lines[i] = b",".join(fields)
    return b"\n".join(lines)


def numbers(name, text):
    """The numbers in an output file's text, as written."""
    lines = text.splitlines()
    if name == "model.out":
        return [f for line in lines[1:] if not line.endswith(":")
                for f in line.split(",") if f]
    if name == "scores.out":
        return [line.split(",")[-1] for line in lines[1:]]
    if name == "grid.out":  # n_global,n_local,seed,eer rows
        return [f for line in lines[1:] for f in line.split(",")]
    out = []  # a report: metric,value rows, then det_far,det_miss rows
    for line in lines:
        fields = line.split(",")
        if line not in ("metric,value", "det_far,det_miss"):
            out += fields[1:] if fields[0] in METRICS else fields
    return out


POSITION = st.integers(0, 1 << 20)
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), POSITION),
    st.tuples(st.just("flip"), POSITION, st.integers(1, 255)),
    st.tuples(st.just("field"), POSITION, POSITION, st.sampled_from(VALUES)),
    st.tuples(st.just("duplicate"), POSITION),
    st.tuples(st.just("scale"), POSITION),
)
JOBS = st.sampled_from([(c, f) for c, (ins, _) in COMMANDS.items() if c != "sweep"
                        for f in ins])


@settings(deadline=None, max_examples=150)
@given(job=JOBS, mutation=MUTATIONS)
@example(job=("train", "corpus"), mutation=("scale", 0))  # the covariance overflows
@example(job=("score", "model"), mutation=("field", 2, 0, "1e308"))  # a u of 1e308
def test_exit_contract(inputs, job, mutation):
    check(inputs, job, mutation)


# a sweep trains and scores a grid of cells, so it gets fewer examples
@settings(deadline=None, max_examples=40)
@given(target=st.sampled_from(COMMANDS["sweep"][0]), mutation=MUTATIONS)
@example(target="local", mutation=("scale", 0))  # the covariance overflows
def test_sweep_exit_contract(inputs, target, mutation):
    check(inputs, ("sweep", target), mutation)


def check(inputs, job, mutation):
    """Run one command with one of its input files mutated."""
    command, target = job
    assume(mutation[0] != "scale" or target in CORPORA)
    ins, outs = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        p = {name: Path(tmp) / name for name in ins + outs}
        given_bytes = {name: inputs[name] for name in ins}
        given_bytes[target] = mutate(inputs[target], mutation)
        for name in ins:
            p[name].write_bytes(given_bytes[name])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(*argv(command, p))
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        for name in ins:
            assert p[name].read_bytes() == given_bytes[name], name
        left = sorted(f.name for f in Path(tmp).iterdir())
        assert left == sorted(ins + (outs if code == 0 else ())), err.getvalue()
        for name in outs if code == 0 else ():
            for number in numbers(name, p[name].read_text()):
                assert math.isfinite(float(number)), (name, number)
