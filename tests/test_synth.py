import numpy as np
import pytest

from plda_local.data_model import build_global_view, build_local_view
from plda_local.synth import (
    SynthConfig,
    SynthError,
    sample_conversations,
    sample_truth,
    split_eval,
)
from _helpers import partition


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
        assert np.trace(t.B) / np.trace(t.Sigma) == pytest.approx(1.0, rel=1e-10)


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
        expected_between = truth.B + truth.Sigma / 5
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

    def test_c5_shape(self):
        # 1236 speakers, 1 enroll + 3 test -> 3708 test utterances
        data = sample_conversations(
            cfg(seed=4, dim=3, latent_dim=1, n_conversations=1236, utts_per_slot=4)
        )
        split = split_eval(data, 1, 3, seed=0)
        assert len(split.enroll) == 1236
        assert len(split.test) == 3708
