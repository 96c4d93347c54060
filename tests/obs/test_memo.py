"""``repro.obs.Memo``: the one memo of client-sent content.

Three things are pinned here: the memo's own rules (least recently used
first out, bounded in entries and in weighed bytes, ``None`` keeps
nothing, a raise keeps nothing); that eight threads hammering one memo
get the function's own results and leave ``bytes`` equal to the
resident weights (``FUZZ_LONG=1`` raises the budget); and that a
hostile client filling all six memos with the densest entries each
keeps pins at most six budgets, as ``tracemalloc`` measures it.
"""

import gc
import itertools
import os
import random
import sys
import threading
import tracemalloc

import pytest

from repro import obs
from repro.core import XacmlPlusInstance, stream_policy
from repro.core.user_query import UserQuery
from repro.expr.compile import compile_batch
from repro.expr.parser import parse_condition
from repro.obs import MEMO_BUDGET, MEMO_ENTRIES, MEMO_MAX_TEXT, MEMOS, Memo
from repro.serving.wire import ErrorReply, EvaluateReply, decode_message, encode_message
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import DataType, Field, Schema
from repro.xacml.request import Request
from repro.xacml.xml_io import parse_request_xml

#: A non-BMP character: one in a string makes CPython store all of it at
#: four bytes a character.
WIDE = "\U0001F600"


class TestMemo:
    def test_hits_refresh_and_the_least_recently_used_goes_first(self):
        calls = []
        memo = Memo(lambda key: calls.append(key) or key * 2, lambda key, value: 1)
        assert [memo.get(key) for key in (1, 2, 1)] == [2, 4, 2]
        assert (memo.hits, memo.misses, calls) == (1, 2, [1, 2])
        assert list(memo.entries) == [2, 1]
        assert memo.info() == (1, 2, MEMO_ENTRIES, 2, 2)

    def test_entries_are_capped(self):
        memo = Memo(lambda key: key, lambda key, value: 1)
        for key in range(MEMO_ENTRIES + 3):
            memo.get(key)
        assert len(memo) == MEMO_ENTRIES and memo.bytes == MEMO_ENTRIES
        assert next(iter(memo.entries)) == 3

    def test_bytes_are_capped_and_an_entry_over_budget_is_not_kept(self):
        quarter = MEMO_BUDGET // 4
        memo = Memo(lambda key: key, lambda key, weight: weight)
        for weight in (quarter, quarter + 1, quarter, quarter):
            memo.get(weight)
        assert list(memo.entries) == [quarter + 1, quarter] and memo.bytes == 2 * quarter + 1
        memo.get(quarter - 1)
        assert memo.bytes == 3 * quarter and len(memo) == 3
        assert memo.get(MEMO_BUDGET + 1) == MEMO_BUDGET + 1
        assert memo.bytes == 3 * quarter and len(memo) == 3

    def test_none_and_a_raise_keep_nothing(self):
        def function(key):
            if key < 0:
                raise ValueError(key)
            return key

        memo = Memo(function, lambda key, value: None if key > 9 else 1)
        assert memo.get(10) == 10 and memo.get(10) == 10
        for _ in range(2):
            with pytest.raises(ValueError):
                memo.get(-1)
        assert (memo.hits, memo.misses, len(memo), memo.bytes) == (0, 4, 0, 0)

    def test_clear_drops_entries_and_counts(self):
        memo = Memo(lambda key: key, lambda key, value: 5)
        memo.get(1)
        memo.get(1)
        memo.clear()
        assert memo.info() == (0, 0, MEMO_ENTRIES, 0, 0)

    def test_a_named_memo_is_listed(self):
        assert {"request_parse", "user_query_parse", "compile_batch", "frame_decode",
                "frame_encode"} <= set(MEMOS)
        assert MEMOS["request_parse"].function is parse_request_xml.__wrapped__


# -- concurrency --------------------------------------------------------------------

#: ``FUZZ_LONG=1`` (the nightly ``fuzz-deep`` job) raises the budget.
ROUNDS = 40 if os.environ.get("FUZZ_LONG") else 4
THREADS = 8
CALLS = 4000


def slow_square(key):
    """The hammered function: raises for every seventh key, and runs a
    loop long enough for threads to switch mid-call, so misses overlap."""
    if key % 7 == 3:
        raise KeyError(f"refused {key}")
    total = 0
    for step in range(key % 5 * 20):
        total += step
    return key * key + total - total


def weigh_eighth(key, value):
    """A budget of only a few entries: each weighs 1/8 to 3/8 of it."""
    return MEMO_BUDGET // 8 * (1 + key % 3)


@pytest.mark.parametrize("round_", range(ROUNDS))
def test_threads_hammering_one_memo_see_the_functions_results(round_):
    memo = Memo(slow_square, weigh_eighth)
    failures = []
    start = threading.Barrier(THREADS)

    def hammer(seed):
        rng = random.Random(round_ * THREADS + seed)
        start.wait()
        try:
            for _ in range(CALLS):
                key = rng.randrange(40)
                try:
                    got = memo.get(key)
                except KeyError as error:
                    expected_error = KeyError(f"refused {key}")
                    if key % 7 != 3 or error.args != expected_error.args:
                        failures.append((key, repr(error)))
                    continue
                if key % 7 == 3 or got != slow_square(key):
                    failures.append((key, got))
        except Exception as error:  # anything but the function's own error
            failures.append(("raised", repr(error)))

    threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads mid-lookup as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert memo.bytes == sum(weigh_eighth(key, value) for key, value in memo.entries.items())
    assert memo.bytes <= MEMO_BUDGET and 0 < len(memo) <= 8
    assert set(memo.entries) == set(memo._weights)
    assert memo.hits > 0 and memo.misses > 0


# -- what a hostile client can pin ---------------------------------------------------

#: One stream whose attribute names are one letter long: the most
#: condition per character.
TINY = Schema("s", [Field("t", DataType.TIMESTAMP), Field("x", DataType.DOUBLE)])


def request_document(serial: int) -> str:
    """65 attributes, the most ``parse_request_xml`` keeps, with one
    non-BMP character."""
    attributes = "".join(
        f'<Attribute AttributeId="{WIDE if i == 0 else chr(0x41 + i)}{serial % 97:02}"/>'
        for i in range(64)
    ) + f'<Attribute AttributeId="{serial}"/>'
    document = f"<Request><Subject>{attributes}</Subject></Request>"
    assert len(document) <= MEMO_MAX_TEXT
    return document


def condition(serial: int, characters: int, gap: str = "") -> str:
    """A disjunction of ``x>K`` leaves, as many as fit *characters*;
    ``gap=" "`` spells it as ``to_condition_string`` renders it."""
    leaves = [f"x{gap}>{gap}{serial}"]
    length = len(leaves[0])
    while True:
        leaf = f" OR x{gap}>{gap}{len(leaves)}"
        if length + len(leaf) > characters:
            return "".join(leaves)
        leaves.append(leaf)
        length += len(leaf)


def user_query_document(serial: int, characters: int = MEMO_MAX_TEXT, gap: str = "") -> str:
    """A user query of at most *characters*, nearly all of it a filter."""
    frame = ('<UserQuery><Stream name="s"/><Filter><FilterCondition>{}'
             "</FilterCondition></Filter></UserQuery>")
    document = frame.format(condition(serial, characters - len(frame) + 2, gap))
    assert len(document) <= characters
    return document


def evaluate_frame(serial: int) -> bytes:
    """An evaluate frame of 2,048 bytes, the most ``decode_message``
    looks up."""
    head = b'{"seq":1,"op":"evaluate","body":{"request_xml":"' + f"{WIDE}{serial}".encode()
    return head + b"a" * (MEMO_MAX_TEXT - len(head) - 3) + b'"}}'


def error_reply(serial: int) -> ErrorReply:
    """A reply whose rendered tail is 2,048 bytes."""
    detail = WIDE + str(serial)
    render = encode_message.__wrapped__(1, ErrorReply("x", detail))
    pad = MEMO_MAX_TEXT - (len(render) - 4 - len(b'{"seq":1'))
    return ErrorReply("x", detail + "a" * pad)


def granting_instance():
    instance = XacmlPlusInstance(enforce_single_access=False, allow_partial_results=True)
    instance.engine.register_input_stream("s", TINY)
    instance.load_policy(stream_policy(
        "p", "s", QueryGraph("s").append(FilterOperator("x > 0")), subject="u"))
    return instance


def fill(memo, add, serials) -> None:
    """Add entries from *serials* until *memo* has evicted a few."""
    for serial in serials:
        add(serial)
        if memo.misses > len(memo) + 2:
            return
    raise AssertionError("the memo never filled")


#: The budget the hostile test fills to: a sixteenth of the real one on
#: the PR path (``tracemalloc`` makes each dense entry slow to build),
#: the real one under ``FUZZ_LONG=1``.
BUDGET = MEMO_BUDGET if os.environ.get("FUZZ_LONG") else MEMO_BUDGET // 16


def test_a_hostile_client_pins_at_most_six_budgets(monkeypatch):
    """Every memo filled past its budget with the densest entries it
    keeps, plus the entries the parent kept and this one refuses: user
    queries and conditions longer than any kept text, and grants
    (whose replies name a new handle each)."""
    monkeypatch.setattr(obs, "MEMO_BUDGET", BUDGET)
    instance = granting_instance()
    for memo in MEMOS.values():
        memo.clear()

    def grant(serial, characters):
        query = UserQuery.from_xml(user_query_document(serial, characters, " "))
        result = instance.request_stream(Request.simple("u", "s"), query)
        encode_message(1, EvaluateReply(True, result.handle.uri))
        instance.release_stream(result.handle)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        serials = iter(range(10 ** 9))
        fill(MEMOS["request_parse"],
             lambda n: parse_request_xml(request_document(n)).fingerprint(), serials)
        fill(MEMOS["frame_decode"], lambda n: decode_message(evaluate_frame(n)), serials)
        fill(MEMOS["frame_encode"], lambda n: encode_message(1, error_reply(n)), serials)
        fill(MEMOS["user_query_parse"], lambda n: UserQuery.from_xml(user_query_document(n)),
             serials)
        fill(MEMOS["compile_batch"],
             lambda n: compile_batch(parse_condition(condition(n, MEMO_MAX_TEXT, " ")), TINY),
             serials)
        fill(instance.pep.templates, lambda n: grant(n, MEMO_MAX_TEXT - 150), serials)
        for serial in itertools.islice(serials, 2):
            grant(serial, 2 * MEMO_MAX_TEXT)
            compile_batch(parse_condition(condition(serial, 5000, " ")), TINY)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
        assert all(memo.bytes <= BUDGET for memo in [*MEMOS.values(), instance.pep.templates])
    finally:
        tracemalloc.stop()
        for memo in MEMOS.values():
            memo.clear()
    assert growth <= 6 * BUDGET, f"{growth / 2 ** 20:.1f} MiB"
