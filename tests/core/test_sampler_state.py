"""Unit tests for the logical sampler state {S, U, ds, sfm}."""

from repro.core.sampler_state import SamplerState


class TestUpdates:
    def test_with_strat_unions(self):
        state = SamplerState(strat_cols=frozenset({"a"}))
        assert state.with_strat({"b"}).strat_cols == frozenset({"a", "b"})

    def test_scaled_ds_and_sfm(self):
        state = SamplerState(ds=0.5, sfm=2.0)
        assert state.scaled_ds(0.5).ds == 0.25
        assert state.scaled_ds(0.5).sfm == 2.0

    def test_immutable(self):
        state = SamplerState()
        state.with_strat({"a"})
        assert state.strat_cols == frozenset()


class TestRename:
    def test_renames_all_column_sets(self):
        state = SamplerState(
            strat_cols=frozenset({"a", "b"}),
            univ_cols=frozenset({"a"}),
            cd_cols=frozenset({"b"}),
            opt_cols=frozenset({"b"}),
            value_cols=frozenset({"c"}),
        )
        renamed = state.renamed({"a": "x", "b": "y", "c": "z"})
        assert renamed.strat_cols == frozenset({"x", "y"})
        assert renamed.univ_cols == frozenset({"x"})
        assert renamed.cd_cols == frozenset({"y"})
        assert renamed.opt_cols == frozenset({"y"})
        assert renamed.value_cols == frozenset({"z"})


class TestDissonance:
    def test_no_overlap_is_fine(self):
        state = SamplerState(strat_cols=frozenset({"a"}), univ_cols=frozenset({"k"}))
        assert not state.dissonant()

    def test_full_overlap_is_dissonant(self):
        state = SamplerState(strat_cols=frozenset({"k"}), univ_cols=frozenset({"k"}))
        assert state.dissonant()

    def test_count_distinct_overlap_allowed(self):
        state = SamplerState(
            strat_cols=frozenset({"k"}),
            univ_cols=frozenset({"k"}),
            cd_cols=frozenset({"k"}),
        )
        assert not state.dissonant()

    def test_small_overlap_allowed(self):
        state = SamplerState(
            strat_cols=frozenset({"a", "b", "c", "k"}),
            univ_cols=frozenset({"k", "j", "m"}),
        )
        assert not state.dissonant()


class TestKey:
    def test_key_round_trips(self):
        a = SamplerState(strat_cols=frozenset({"a"}), ds=0.5)
        b = SamplerState(strat_cols=frozenset({"a"}), ds=0.5)
        assert a.key() == b.key()

    def test_key_distinguishes_ds(self):
        assert SamplerState(ds=0.5).key() != SamplerState(ds=0.6).key()

    def test_key_distinguishes_family(self):
        assert SamplerState(family=1).key() != SamplerState(family=2).key()
