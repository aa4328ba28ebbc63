"""Tests for the simulated Redis broker (repro.d4py.redisim)."""

import threading
import time

from hypothesis import given, strategies as st

from repro.d4py.redisim import RedisSim


def test_public_api_is_what_the_pool_calls():
    public = {name for name in dir(RedisSim) if not name.startswith("_")}
    assert public == {"rpush", "blpop", "llen", "incr", "decr", "get", "wait_for_zero"}


def test_llen():
    r = RedisSim()
    assert r.llen("q") == 0
    r.rpush("q", 1, 2)
    assert r.llen("q") == 2


def test_blpop_head_pop_is_fifo_with_rpush():
    """rpush + blpop is the FIFO pairing the dynamic task queue relies on."""
    r = RedisSim()
    r.rpush("q", "a", "b", "c")
    assert [r.blpop("q", timeout=0.1) for _ in range(3)] == ["a", "b", "c"]


def test_blpop_times_out_on_empty():
    r = RedisSim()
    start = time.monotonic()
    assert r.blpop("empty", timeout=0.05) is None
    assert time.monotonic() - start >= 0.04


def test_blpop_wakes_on_push():
    r = RedisSim()
    got = []

    def consumer():
        got.append(r.blpop("q", timeout=2.0))

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.02)
    r.rpush("q", "item")
    t.join(timeout=2.0)
    assert got == ["item"]


def test_incr_decr():
    r = RedisSim()
    assert r.incr("c") == 1
    assert r.incr("c", 5) == 6
    assert r.decr("c") == 5


def test_wait_for_zero_immediate():
    r = RedisSim()
    assert r.wait_for_zero("absent", timeout=0.1) is True


def test_wait_for_zero_times_out():
    r = RedisSim()
    r.incr("busy")
    assert r.wait_for_zero("busy", timeout=0.05) is False


def test_wait_for_zero_wakes_on_decr():
    r = RedisSim()
    r.incr("busy")

    def finisher():
        time.sleep(0.02)
        r.decr("busy")

    t = threading.Thread(target=finisher)
    t.start()
    assert r.wait_for_zero("busy", timeout=2.0) is True
    t.join()


def test_concurrent_incr_is_atomic():
    r = RedisSim()

    def bump():
        for _ in range(1000):
            r.incr("n")

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert r.get("n") == 8000


def test_concurrent_producers_consumers_conserve_items():
    r = RedisSim()
    produced = 500
    consumed = []
    lock = threading.Lock()

    def producer(base):
        for i in range(100):
            r.rpush("jobs", base + i)

    def consumer():
        while True:
            item = r.blpop("jobs", timeout=0.2)
            if item is None:
                return
            with lock:
                consumed.append(item)

    producers = [threading.Thread(target=producer, args=(i * 100,)) for i in range(5)]
    consumers = [threading.Thread(target=consumer) for _ in range(4)]
    for t in producers + consumers:
        t.start()
    for t in producers + consumers:
        t.join()
    assert sorted(consumed) == list(range(produced))


@given(st.lists(st.integers(), max_size=50))
def test_list_roundtrip_preserves_items(items):
    r = RedisSim()
    if items:
        r.rpush("q", *items)
    popped = [r.blpop("q", timeout=0) for _ in items]
    assert popped == items


@given(st.lists(st.integers(min_value=-100, max_value=100), max_size=50))
def test_incr_sums_deltas(deltas):
    r = RedisSim()
    for d in deltas:
        r.incr("k", d)
    assert int(r.get("k") or 0) == sum(deltas)
