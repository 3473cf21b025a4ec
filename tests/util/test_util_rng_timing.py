"""Tests for repro.util.rng."""

from repro.util.rng import DEFAULT_SEED, derive_seed, seeded_rng


class TestSeededRng:
    def test_default_is_deterministic(self):
        assert seeded_rng().random() == seeded_rng().random()

    def test_explicit_seed_honored(self):
        assert seeded_rng(7).random() == seeded_rng(7).random()
        assert seeded_rng(7).random() != seeded_rng(8).random()

    def test_default_seed_constant(self):
        assert seeded_rng().random() == seeded_rng(DEFAULT_SEED).random()


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_decorrelate(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_decorrelates(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_no_concatenation_ambiguity(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_result_fits_in_64_bits(self):
        assert 0 <= derive_seed(123, "x") < 2**64
