import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plda_local import cli
from plda_local.data_model import build_global_view, build_local_view
from plda_local.synth import (
    SynthConfig,
    SynthError,
    sample_conversations,
    sample_truth,
    split_eval,
)
from _helpers import (
    between_cov,
    corpus,
    partition,
    random_model,
    sample_conversations_rows,
    scaled_truth,
)


def cfg(**kw):
    base = dict(dim=6, latent_dim=2, seed=0, n_conversations=10)
    base.update(kw)
    return SynthConfig(**base)


class TestSampleTruth:
    def test_deterministic(self):
        a = sample_truth(cfg(seed=7))
        b = sample_truth(cfg(seed=7))
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.Sigma, b.Sigma)

    def test_q0_pure_gaussian(self):
        t = sample_truth(cfg(latent_dim=0))
        assert t.V.shape == (6, 0)

    def test_sigma_eigenvalue_floor(self):
        t = sample_truth(cfg(seed=3, dim=12, latent_dim=4))
        assert np.linalg.eigvalsh(t.Sigma)[0] >= 0.5

    def test_unit_between_within_ratio(self):
        t = sample_truth(cfg(seed=4, dim=20, latent_dim=5))
        assert np.trace(between_cov(t)) / np.trace(t.Sigma) == pytest.approx(1.0, rel=1e-10)


class TestSampleConversations:
    def test_no_recurrence_speaker_count(self):
        data = sample_conversations(cfg(n_conversations=50, slots_per_conversation=2))
        assert len({r.global_spk for r in data.records}) == 100

    def test_full_recurrence_single_speaker(self):
        data = sample_conversations(
            cfg(n_conversations=30, slots_per_conversation=1, recurrence=1.0)
        )
        assert len({r.global_spk for r in data.records}) == 1

    def test_recurrence_rate_binomial(self):
        data = sample_conversations(
            cfg(seed=9, n_conversations=1000, slots_per_conversation=2,
                recurrence=0.3)
        )
        slots = {(r.conv_id, r.slot): r.global_spk for r in data.records}
        assert len(slots) == 2000
        n_spk = len(set(slots.values()))
        frac_reused = 1.0 - n_spk / 2000
        # 3 sigma of Binomial(2000, 0.3)
        assert abs(frac_reused - 0.3) < 3 * np.sqrt(0.3 * 0.7 / 2000)

    def test_within_conversation_distinct(self):
        data = sample_conversations(
            cfg(seed=5, n_conversations=100, slots_per_conversation=3,
                recurrence=0.8)
        )
        by_conv = {}
        for r in data.records:
            by_conv.setdefault(r.conv_id, {})[r.slot] = r.global_spk
        for spks in by_conv.values():
            assert len(set(spks.values())) == len(spks)

    def test_bit_identical_given_seed(self):
        a = sample_conversations(cfg(seed=13, utts_per_slot=2, recurrence=0.4))
        b = sample_conversations(cfg(seed=13, utts_per_slot=2, recurrence=0.4))
        for ra, rb in zip(a.records, b.records):
            assert ra.utt_id == rb.utt_id
            np.testing.assert_array_equal(ra.vector, rb.vector)

    def test_rho0_local_equals_global_partition(self):
        data = sample_conversations(
            cfg(seed=6, n_conversations=40, slots_per_conversation=2, utts_per_slot=3)
        )
        assert partition(build_local_view(data)) == partition(build_global_view(data))

    def test_empirical_covariances_converge(self):
        c = cfg(seed=8, dim=6, latent_dim=2, n_conversations=2500,
                slots_per_conversation=1, utts_per_slot=5)
        truth = sample_truth(c)
        data = sample_conversations(SynthConfig(**{**c.__dict__, "truth": truth}))
        by_spk = {}
        for r in data.records:
            by_spk.setdefault(r.global_spk, []).append(r.vector)
        within = np.zeros((6, 6))
        means = []
        n = 0
        for vecs in by_spk.values():
            X = np.stack(vecs)
            mu = X.mean(axis=0)
            means.append(mu)
            within += (X - mu).T @ (X - mu)
            n += len(X) - 1
        within /= n
        between = np.cov(np.stack(means), rowvar=False, ddof=1)
        # speaker means carry Sigma/5 measurement noise on top of B
        expected_between = between_cov(truth) + truth.Sigma / 5
        assert (
            np.linalg.norm(within - truth.Sigma) / np.linalg.norm(truth.Sigma) < 0.1
        )
        assert (
            np.linalg.norm(between - expected_between) / np.linalg.norm(expected_between)
            < 0.1
        )

    def test_invalid_recurrence(self):
        with pytest.raises(SynthError):
            cfg(recurrence=1.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(SynthError, match="seed"):
            cfg(seed=seed)

    def test_numpy_integer_seed(self):
        a = sample_conversations(cfg(seed=np.int64(4)))
        b = sample_conversations(cfg(seed=4))
        assert a.utt_ids == b.utt_ids
        np.testing.assert_array_equal(a.vectors(), b.vectors())


@st.composite
def synth_configs(draw):
    d = draw(st.integers(1, 12))
    q = draw(st.integers(0, d))
    c = dict(dim=d, latent_dim=q, seed=draw(st.integers(0, 2**32)),
             n_conversations=draw(st.integers(1, 12)),
             slots_per_conversation=draw(st.integers(1, 4)),
             utts_per_slot=draw(st.integers(1, 3)),
             recurrence=draw(st.sampled_from([0.0, 0.3, 1.0])))
    if draw(st.booleans()):  # a given truth model, with a non-zero mean
        c["truth"] = random_model(np.random.default_rng(c["seed"]), d, q)
    return SynthConfig(**c)


class TestMatchesPerUtteranceOracle:
    @settings(max_examples=150, deadline=None)
    @given(synth_configs())
    def test_bit_identical(self, c):
        utt_ids, conv_ids, slots, spk_ids, X = sample_conversations_rows(c)
        data = sample_conversations(c)
        assert data.utt_ids == tuple(utt_ids)
        assert data.conv_ids == tuple(conv_ids)
        assert data.slots == tuple(slots)
        assert data.global_spks == tuple(spk_ids)
        assert data.vectors().tobytes() == X.tobytes()

    def test_fallback_after_100_redraws(self):
        # with recurrence 1 the second slot of the first conversation can
        # only redraw the one speaker there is, so it falls back to a new one
        c = cfg(n_conversations=3, slots_per_conversation=3, recurrence=1.0)
        data = sample_conversations(c)
        assert len(set(data.global_spks)) == 3
        assert data.vectors().tobytes() == sample_conversations_rows(c)[4].tobytes()

    def test_more_rows_than_one_transform_block(self):
        c = cfg(dim=3, latent_dim=1, n_conversations=9000, recurrence=0.3)
        assert sample_conversations(c).vectors().tobytes() == \
            sample_conversations_rows(c)[4].tobytes()


def corpus_digest(data):
    """sha256 over a dataset's vectors (float64 bytes) and id columns."""
    h = hashlib.sha256(np.ascontiguousarray(data.vectors(), dtype="<f8").tobytes())
    for col in (data.utt_ids, data.conv_ids, data.slots, data.global_spks):
        h.update("\n".join(map(str, col)).encode() + b"\0")
    return h.hexdigest()


# Digests of the corpora the benchmark builds for its seed 0, taken from the
# per-utterance sampler: any change to the draw order or to the bits of the
# transform fails here.
STRATEGY_SHA = {
    0: ("c9ca44550c6c1adc9b13d0a1fb93e4150db3dca2d958040b0ee58e52c4e69b7c",
        "ac32f079296e338224f02d202dbb1287c47f41b39df8ce23afa19c70c10eb399",
        "c16c3a04dc2d1c45f6cecb895533dff641232de6df617f9afc8c3c9eb882bfa9"),
    1: ("7aac05e3882ab7cdc55e5c11dedfdde06ea13ba3f0095248704f4f556a99e0b2",
        "fed3b1c8473994660f1bc2f896a3d985c14d6da7f321900d624b4aa94d3a3c45",
        "72f2964ce97d277e411adb6662368acfa41d1ee1a65e38a7556eeaa965d91d62"),
    2: ("bad3e14f7d93d5cccc148b9ad3d8f4d2b7feb4552488441263d682d6ef50b1a7",
        "b4d3d965d5e01083d2b48fe45a2bf500021e114ecbefc6355103d0caddac43a1",
        "b585fe67df021e6275bbe7eaa2028bd6a4f5e2c580106aa70f34bf427e0eed44"),
    3: ("e6ae4e43e70743a2e62ba4b33988c57f6a4df064412c488e180767d89a2e6a43",
        "339e460f83ba3aa8472877f3fb336a0aea9bbeeabdb89654c8db2564f8c48dfd",
        "3e688c62c5c8eb2e044a1c753407366b2b41b791fb90430454f2ea846061a03d"),
    4: ("86e4754d53c540b397862c3c4b9ea284a089276a36adb81538da17d19b655c1e",
        "68010f5888f9e63951eec36d8c0d015cbaa25fa827eb82ab234bbfacdcd2bfaa",
        "dbcf6ecb6ca63f15416300a303929f57f3d28012502d8a27d0068b860ad1752e"),
}
SWEEP_SHA = ("e7e76f107ecc63eace6efcb3817118064ecb70ccc64ee2aa4683282c81b96b25",
             "be881f24794ec41ad9560db15a81fd2dc05c8a5bd9a2b01a6964d4b91763b0db",
             "5150975665f3d4d1e47325ed2b718b74e214a726f714b2b1419cb2a91885c96b")
SRE_EVAL_SHA = "5140a1f2d67041a92c2758d5f3fef1343afbbc9b620c0508662b5ae272237a72"
SRE_SYNTH_SHA = "6895ececce393a8f6c8be2622b9e71c856d2e449f31902b457748428b5628e48"
CLI_CORPUS_SHA = "db39dc290e615e1fa4c6c1db30033f6ebc59fa0aa628ad67117e6a69a35e2010"
CLI_TRUTH_SHA = "613ddfd3b060a12765dc0eb8a64d7c98f338e1d24a2b354ebd55ac43f8d48944"


class TestGoldenCorpora:
    """The benchmark's seed-0 corpora, built as perfbench/workloads.py
    builds them."""

    @pytest.mark.parametrize("k", sorted(STRATEGY_SHA))
    def test_strategy(self, k):
        t = scaled_truth(k, 50, 10, vscale=0.35)
        got = (corpus(10000 + k, 50, 10, 500, utts=5, truth=t),
               corpus(20000 + k, 50, 10, 750, slots=2, utts=2, rho=0.05, truth=t),
               corpus(30000 + k, 50, 10, 300, utts=4, truth=t))
        assert tuple(map(corpus_digest, got)) == STRATEGY_SHA[k]

    def test_sweep(self):
        t = scaled_truth(99, 50, 10)
        got = (corpus(111, 50, 10, 1000, utts=4, truth=t),
               corpus(222, 50, 10, 1000, slots=2, utts=2, rho=0.3, truth=t),
               corpus(333, 50, 10, 200, utts=4, truth=t))
        assert tuple(map(corpus_digest, got)) == SWEEP_SHA

    def test_sre_cli_eval(self):
        e = corpus(1, 50, 10, 1236, utts=4, truth=scaled_truth(0, 50, 10))
        assert corpus_digest(e) == SRE_EVAL_SHA

    def test_sre_cli_synth(self):
        # what `synth --seed 0 --conversations 10000 --slots 2 --utts 2` samples
        c = SynthConfig(dim=50, latent_dim=10, seed=0, n_conversations=10000,
                        slots_per_conversation=2, utts_per_slot=2, recurrence=0.05)
        data = sample_conversations(SynthConfig(**{**c.__dict__, "truth": sample_truth(c)}))
        assert corpus_digest(data) == SRE_SYNTH_SHA

    def test_cli_files(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli.main(["synth", "--dim", "5", "--latent", "2", "--conversations", "40",
                         "--slots", "3", "--utts", "2", "--recurrence", "0.4",
                         "--seed", "11", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_CORPUS_SHA
        truth = tmp_path / "c.csv.truth.plda"
        assert hashlib.sha256(truth.read_bytes()).hexdigest() == CLI_TRUTH_SHA


class TestSplitEval:
    def test_exact_fit_uses_all(self):
        data = sample_conversations(
            cfg(seed=1, n_conversations=20, utts_per_slot=4)
        )
        split = split_eval(data, 1, 3, seed=0)
        assert split.n_excluded == 0
        enroll_utts = {r.utt_id for recs in split.enroll.values() for r in recs}
        test_utts = {r.utt_id for r in split.test.records}
        assert not enroll_utts & test_utts
        assert len(enroll_utts) == 20
        assert len(test_utts) == 60

    def test_deterministic(self):
        data = sample_conversations(cfg(seed=2, n_conversations=15, utts_per_slot=5))
        a = split_eval(data, 2, 2, seed=3)
        b = split_eval(data, 2, 2, seed=3)
        assert [r.utt_id for r in a.test.records] == [r.utt_id for r in b.test.records]

    def test_insufficient_speakers_excluded(self):
        data = sample_conversations(cfg(seed=3, n_conversations=10, utts_per_slot=2))
        split = split_eval(data, 1, 3, seed=0)
        assert split.n_excluded == 10
        assert len(split.enroll) == 0

    @pytest.mark.parametrize("seed", [-2, 0.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        data = sample_conversations(cfg(n_conversations=4, utts_per_slot=4))
        with pytest.raises(SynthError, match="seed"):
            split_eval(data, 1, 3, seed=seed)

    def test_c5_shape(self):
        # 1236 speakers, 1 enroll + 3 test -> 3708 test utterances
        data = sample_conversations(
            cfg(seed=4, dim=3, latent_dim=1, n_conversations=1236, utts_per_slot=4)
        )
        split = split_eval(data, 1, 3, seed=0)
        assert len(split.enroll) == 1236
        assert len(split.test) == 3708
