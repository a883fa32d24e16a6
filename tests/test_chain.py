import pytest

from pobsim.adversaries import long_range_fork_outcome
from pobsim.chain import Block, extend_chain, fork_choice, genesis_block
from pobsim.scoring import ActionKind, BehaviorRecord, MotivationProfile
from pobsim.weights import WeightTable

MOT = MotivationProfile((0.0,), (1.0,))


def _behavior(actor, u_b):
    return BehaviorRecord(
        actor=actor, epoch=0, kind=ActionKind.PROPOSE, base_utility=u_b,
        context_factor=1.0, initiative=1.0, motivation=MOT,
    )


def _tip(signers, utility, proposer="p", table=None, height=1):
    parent = genesis_block()
    for h in range(1, height + 1):
        parent = Block(
            height=h, proposer=proposer, behaviors=(), parent=parent,
            timestamp_ms=0.0, cumulative_utility=utility,
            signer_weight=0.0, signers=frozenset(signers),
        )
    return parent


class TestBlocks:
    def test_extend_accumulates_utility_and_weight(self):
        table = WeightTable({"a": 0.6, "b": 0.4})
        b1 = extend_chain(genesis_block(), "a", [_behavior("a", 2.0)], 2.0, 10.0, ["a", "b"], table)
        assert b1.height == 1
        assert b1.cumulative_utility == pytest.approx(2.0)
        assert b1.signer_weight == pytest.approx(1.0)
        b2 = extend_chain(b1, "b", [_behavior("b", 3.0)], 3.0, 20.0, ["a"], table)
        assert b2.cumulative_utility == pytest.approx(5.0)
        assert b2.signer_weight == pytest.approx(0.6)

    def test_height_must_extend_parent(self):
        g = genesis_block()
        with pytest.raises(ValueError):
            Block(height=5, proposer="a", behaviors=(), parent=g, timestamp_ms=0.0,
                  cumulative_utility=0.0, signer_weight=0.0)


class TestForkChoice:
    def test_signer_weight_dominates(self):
        table = WeightTable({"a": 0.9, "b": 0.1})
        heavy = _tip({"a"}, utility=1.0)
        light = _tip({"b"}, utility=100.0)
        assert fork_choice(heavy, light, table) is heavy

    def test_utility_breaks_weight_ties(self):
        table = WeightTable({"a": 0.5, "b": 0.5})
        high = _tip({"a"}, utility=10.0)
        low = _tip({"b"}, utility=5.0)
        assert fork_choice(high, low, table) is high

    def test_proposer_id_breaks_full_ties(self):
        table = WeightTable({"a": 0.5, "b": 0.5})
        tip_a = _tip({"a"}, utility=5.0, proposer="aaa")
        tip_b = _tip({"a"}, utility=5.0, proposer="zzz")
        assert fork_choice(tip_a, tip_b, table) is tip_a
        assert fork_choice(tip_b, tip_a, table) is tip_a

    def test_slashed_signers_lose_despite_claimed_utility(self):
        # fork signed by validators whose current weight has been wiped
        table = WeightTable({"honest1": 0.5, "honest2": 0.5, "old": 0.0})
        main = _tip({"honest1", "honest2"}, utility=50.0)
        fork = _tip({"old"}, utility=1e9)
        assert fork_choice(main, fork, table) is main


class TestLongRangeFork:
    def _main_chain(self, n_blocks, table):
        chain = [genesis_block()]
        for _ in range(n_blocks):
            chain.append(
                extend_chain(chain[-1], "h0", [_behavior("h0", 1.0)], 1.0, 0.0,
                             ["h0", "h1"], table)
            )
        return chain

    def test_powerless_signers_rejected(self):
        table = WeightTable({"h0": 0.5, "h1": 0.5, "atk": 0.0})
        chain = self._main_chain(20, table)
        out = long_range_fork_outcome(chain, table, ["atk"], fork_depth=10,
                                      claimed_utility_boost=1e6)
        assert out["adopted"] is False
        assert out["fork_signer_weight"] == pytest.approx(0.0)

    def test_current_majority_break_condition(self):
        # documented boundary: compromising a current-weight majority wins
        table = WeightTable({"h0": 0.2, "h1": 0.2, "atk": 0.6})
        chain = [genesis_block()]
        for _ in range(20):
            chain.append(
                extend_chain(chain[-1], "h0", [_behavior("h0", 1.0)], 1.0, 0.0,
                             ["h0", "h1"], table)
            )
        out = long_range_fork_outcome(chain, table, ["atk"], fork_depth=10,
                                      claimed_utility_boost=1e6)
        assert out["adopted"] is True

    def test_depth_zero_is_noop(self):
        table = WeightTable({"h0": 1.0})
        chain = self._main_chain(5, table)
        out = long_range_fork_outcome(chain, table, ["h0"], fork_depth=0)
        assert out["adopted"] is False

    def test_depth_past_genesis_rejected(self):
        table = WeightTable({"h0": 1.0, "h1": 0.0})
        chain = self._main_chain(5, table)
        with pytest.raises(ValueError):
            long_range_fork_outcome(chain, table, ["h1"], fork_depth=6)
