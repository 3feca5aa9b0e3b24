"""Byte-for-byte pins of the score, key, report and corpus files.

The expected text and sha256 digests were taken from files that the original
row-at-a-time writers produced from the same seeded inputs, so any change to
the bytes these writers emit fails here. The large case has more trials than
one write chunk, in a shuffled (not model-major) order; the corpus case spans
several chunks of 2^16 formatted values. The repeated-DET case holds runs of
one repeated rate, one of them longer than a write chunk.
"""
import hashlib

import numpy as np

from plda_local.data_model import Dataset, UtteranceRecord, write_dataset
from plda_local.eval_harness import (
    EvalReport,
    SweepGrid,
    TrialSet,
    compute_eer,
    write_key,
    write_report,
    write_scores,
)

# values whose repr takes each of its forms: signed zero, exponent, 17 digits
SPECIAL = [0.1, -0.0, 1e-05, 1e16, 5e-324, -1.2345678901234568e17, 3.0,
           0.30000000000000004, -7.5e-310, 123456.789]

# digests of the large case's files
SCORES_SHA = "d68ff66e021f8773629f23c0a8e3f77d453126950fe26142c8090230e0cd11fb"
KEY_SHA = "983decefa2aad776424a494e213b049282894cc3e0e8a56fea2934ee10d96d58"
REPORT_SHA = "124720586afafbfaaa8811960ddc0b2e277234877125827c8afcf6665a759a65"
CORPUS_SHA = "7aa26ccbbba69dfc1c618fb9326be8e27f0a55f28adac603a77f257f52c7eb4e"
REPEATED_DET_SHA = "e3ff25bec0847d7035a551c6f16731f2177ca3e224340fad025e30bf7a4e5fe1"


def small_trials():
    return TrialSet(["spkA", "spkB"], ["u1", "u2", "u3"],
                    [0, 0, 1, 1, 0], [2, 0, 1, 0, 1],
                    [True, False, True, False, False])


def large_case():
    """~90k trials over 60 models x 2500 tests, scores spanning magnitudes."""
    rng = np.random.default_rng(20160928)
    M, T = 60, 2500
    model_ids = [f"spk{m:03d}" for m in range(M)]
    test_ids = [f"utt{t:05d}" for t in range(T)]
    codes = rng.permutation(np.flatnonzero(rng.random(M * T) < 0.6))
    target = rng.random(len(codes)) < 0.05
    scores = rng.normal(size=len(codes)) * 10.0 ** rng.integers(-8, 18, len(codes))
    scores[:len(SPECIAL)] = SPECIAL
    trials = TrialSet(model_ids, test_ids, codes // T, codes % T, target)
    return trials, scores


def repeated_det_case():
    """~160k trials whose DET rows repeat one rate in long runs: in score
    order the trials come in blocks of targets or of nontargets, one block
    of 80,000, and a tenth of the scores tie with the one before, so some
    DET steps move both rates at once."""
    rng = np.random.default_rng(20161018)
    blocks = np.concatenate([[80000], rng.geometric(1 / 1500, size=50)])
    target = np.repeat(np.arange(len(blocks)) % 2 == 1, blocks)
    n = len(target)
    scores = np.arange(n) * 0.25 - 1000.0
    ties = np.flatnonzero(rng.random(n) < 0.1)
    scores[ties[ties > 0]] = scores[ties[ties > 0] - 1]
    scores = np.maximum.accumulate(scores)
    order = rng.permutation(n)
    trials = TrialSet(["spk"], [f"u{i}" for i in range(n)],
                      np.zeros(n, dtype=np.int64), order, target[order])
    return trials, scores[order]


def corpus_case():
    """14,000 x 16 corpus (about 3.4 chunks of values), every seventh record
    unlabeled, components spanning magnitudes and SPECIAL in the first and
    last records."""
    rng = np.random.default_rng(20161001)
    n, dim = 14000, 16
    vecs = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 18, (n, dim))
    vecs[0, :len(SPECIAL)] = SPECIAL
    vecs[-1, -len(SPECIAL):] = SPECIAL
    spk = rng.integers(0, 900, n)
    return Dataset(dim, tuple(
        UtteranceRecord(f"utt{i:05d}", f"conv{i // 2:04d}", i % 2,
                        None if i % 7 == 0 else f"spk{spk[i]:03d}", vecs[i])
        for i in range(n)))


def eval_report(trials, scores):
    ts, ns = scores[trials.target], scores[~trials.target]
    eer, thr = compute_eer(ts, ns)
    return EvalReport(eer=eer, threshold=thr, target_scores=ts, nontarget_scores=ns)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSmallFiles:
    def test_scores(self, tmp_path):
        path = tmp_path / "s.csv"
        write_scores(small_trials(), np.array(SPECIAL[:5]), path)
        assert path.read_bytes() == (
            b"model_id,test_utt_id,score\n"
            b"spkA,u3,0.1\nspkA,u1,-0.0\nspkB,u2,1e-05\nspkB,u1,1e+16\nspkA,u2,5e-324\n"
        )

    def test_key(self, tmp_path):
        path = tmp_path / "k.csv"
        write_key(small_trials(), path)
        assert path.read_bytes() == (
            b"model_id,test_utt_id,key\n"
            b"spkA,u3,target\nspkA,u1,nontarget\nspkB,u2,target\n"
            b"spkB,u1,nontarget\nspkA,u2,nontarget\n"
        )

    def test_report(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(eval_report(small_trials(), np.array([0.5, 0.25, -1.0, 2.0, 0.0])),
                     path)
        assert path.read_bytes() == (
            b"metric,value\neer,0.5\nthreshold,0.375\nn_target,2\nn_nontarget,3\n"
            b"det_far,det_miss\n"
            b"1.0,0.0\n1.0,0.0\n1.0,0.5\n0.6666666666666667,0.5\n"
            b"0.33333333333333337,0.5\n0.33333333333333337,1.0\n0.0,1.0\n"
        )


class TestLargeFiles:
    def test_scores(self, tmp_path):
        trials, scores = large_case()
        path = tmp_path / "s.csv"
        write_scores(trials, scores, path)
        assert sha(path) == SCORES_SHA

    def test_key(self, tmp_path):
        trials, _ = large_case()
        path = tmp_path / "k.csv"
        write_key(trials, path)
        assert sha(path) == KEY_SHA

    def test_eval_report(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(eval_report(*large_case()), path)
        assert sha(path) == REPORT_SHA

    def test_eval_report_with_repeated_det_values(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(eval_report(*repeated_det_case()), path)
        assert sha(path) == REPEATED_DET_SHA

    def test_sweep_report(self, tmp_path):
        grid = SweepGrid(axis_global=(0, 20), axis_local=(200, 2000), repeats=2, cells={
            (0, 200): np.array([0.25, 1 / 3]), (0, 2000): np.array([0.1, 0.0]),
            (20, 200): np.array([2 / 7, 0.2]), (20, 2000): np.array([1e-05, 0.5]),
        })
        path = tmp_path / "g.csv"
        write_report(grid, path)
        assert path.read_bytes() == (
            b"n_global,n_local,seed,eer\n"
            b"0,200,0,0.25\n0,200,1,0.3333333333333333\n0,2000,0,0.1\n0,2000,1,0.0\n"
            b"20,200,0,0.2857142857142857\n20,200,1,0.2\n20,2000,0,1e-05\n20,2000,1,0.5\n"
        )



class TestCorpusFile:
    def test_corpus(self, tmp_path):
        path = tmp_path / "c.csv"
        write_dataset(corpus_case(), path)
        assert sha(path) == CORPUS_SHA
