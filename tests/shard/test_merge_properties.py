"""Merged books are honest (DESIGN.md §17).

``DropLedger.merge`` namespaces every serial by shard, so merged totals
are the per-shard sums and leaks and double counts survive the merge.
"""

from repro.faults.adversary import DELIVERED, DropLedger


class TestLedgerMerge:
    def test_namespaced_serials_never_alias(self):
        ledgers = {}
        for shard in range(3):
            ledger = DropLedger()
            ledger.inject(7)  # same local serial everywhere
            ledger.account(7, DELIVERED)
            ledgers[shard] = ledger
        merged = DropLedger.merge(ledgers)
        assert merged.injected == 3
        assert merged.count(DELIVERED) == 3
        assert not merged.leaks() and not merged.double_counted

    def test_totals_are_per_shard_sums(self):
        ledgers = {}
        expected = {}
        for shard, (delivered, dropped) in enumerate(((5, 2), (3, 0), (0, 4))):
            ledger = DropLedger()
            serial = 0
            for _ in range(delivered):
                ledger.inject(serial)
                ledger.account(serial, DELIVERED)
                serial += 1
            for _ in range(dropped):
                ledger.inject(serial)
                ledger.account(serial, "inq_overflow")
                serial += 1
            ledgers[shard] = ledger
            expected[shard] = (delivered, dropped)
        merged = DropLedger.merge(ledgers)
        assert merged.count(DELIVERED) == sum(d for d, _ in expected.values())
        assert merged.count("inq_overflow") == sum(
            x for _, x in expected.values())
        assert merged.injected == sum(sum(pair) for pair in expected.values())

    def test_leaks_and_doubles_survive_namespaced(self):
        leaky = DropLedger()
        leaky.inject(0)  # never accounted
        doubled = DropLedger()
        doubled.inject(0)
        doubled.account(0, DELIVERED)
        doubled.account(0, "inq_overflow")
        merged = DropLedger.merge({1: leaky, 2: doubled})
        assert merged.leaks() == [(1, 0)]
        assert merged.double_counted == [((2, 0), DELIVERED, "inq_overflow")]
