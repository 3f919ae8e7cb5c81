import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ssiledger.simnet import DELIVER, TIMER, LinkProfile, NetworkConfig, Partition, SimEvent, SimNetwork


def _drain(network: SimNetwork) -> list:
    events = []
    while True:
        event = network.pop()
        if event is None:
            return events
        events.append(event)


class TestDeterminism:
    def test_same_seed_same_delivery_order(self):
        def run(seed):
            net = SimNetwork(NetworkConfig(n=4), seed=seed)
            for i in range(20):
                net.send(i % 4, (i + 1) % 4, f"m{i}")
            return [(e.time, e.node, e.payload) for e in _drain(net)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_entries_are_sim_events(self):
        net = SimNetwork(NetworkConfig(n=2, default_link=LinkProfile(5, 5)), seed=1)
        net.send(0, 1, "m")
        net.timer(1, 7, "t")
        first, second = _drain(net)
        assert type(first) is SimEvent and first == SimEvent(5, 1, DELIVER, 1, "m", 0)
        assert type(second) is SimEvent and second == SimEvent(7, 2, TIMER, 1, "t")

    def test_injected_events_interleave_by_time_then_seq(self):
        net = SimNetwork(NetworkConfig(n=2, default_link=LinkProfile(5, 5)), seed=1)
        net.inject(10, "submit", 0, "late")
        net.send(0, 1, "m")
        net.inject(5, "submit", 1, "tied")
        net.timer(0, 5, "t")
        assert len(net) == 4
        assert [(e.time, e.seq, e.payload) for e in _drain(net)] == [(5, 2, "m"), (5, 3, "tied"), (5, 4, "t"), (10, 1, "late")]
        assert len(net) == 0 and net.now == 10

    def test_time_advances_monotonically(self):
        net = SimNetwork(NetworkConfig(n=4), seed=1)
        for i in range(10):
            net.send(0, 1, i)
        times = [e.time for e in _drain(net)]
        assert times == sorted(times)

    def test_fifo_tiebreak_on_equal_times(self):
        net = SimNetwork(NetworkConfig(n=2, default_link=LinkProfile(5, 5)), seed=1)
        net.send(0, 1, "first")
        net.send(0, 1, "second")
        events = _drain(net)
        assert [e.payload for e in events] == ["first", "second"]

    def test_an_event_queued_at_the_current_ms_comes_after_the_ones_queued(self):
        """An event queued at the ms of the one just popped has a higher seq
        than the events of that ms already queued, so it comes after them."""
        net = SimNetwork(NetworkConfig(n=2, default_link=LinkProfile(5, 5)), seed=1)
        net.send(0, 1, "a")
        net.send(1, 0, "b")
        assert net.pop().payload == "a" and net.now == 5
        net.timer(0, 0, "now")
        net.send(0, 1, "later")
        assert [(e.time, e.payload) for e in _drain(net)] == [(5, "b"), (5, "now"), (10, "later")]


class TestFaults:
    def test_drop_probability(self):
        profile = LinkProfile(5, 15, drop_prob=1.0)
        net = SimNetwork(NetworkConfig(n=2, default_link=profile), seed=1)
        net.send(0, 1, "gone")
        assert net.dropped == 1
        assert _drain(net) == []

    def test_partition_blocks_cross_group_messages(self):
        config = NetworkConfig(
            n=4,
            partitions=[
                Partition(start=0, end=100, group_a=frozenset({0, 1}), group_b=frozenset({2, 3}))
            ],
        )
        net = SimNetwork(config, seed=1)
        net.send(0, 2, "blocked")
        net.send(0, 1, "fine")
        events = _drain(net)
        assert [e.payload for e in events] == ["fine"]
        assert net.dropped == 1

    def test_partition_expires(self):
        config = NetworkConfig(
            n=4,
            partitions=[
                Partition(start=0, end=10, group_a=frozenset({0}), group_b=frozenset({1}))
            ],
        )
        net = SimNetwork(config, seed=1)
        net.timer(0, 50, None)  # advance past the window
        net.pop()
        net.send(0, 1, "late")
        assert [e.payload for e in _drain(net)] == ["late"]

    def test_slow_node_outbound_scaling(self):
        config = NetworkConfig(
            n=2, default_link=LinkProfile(10, 10), slow_nodes={0: 10.0}
        )
        net = SimNetwork(config, seed=1)
        net.send(0, 1, "slow")
        net.send(1, 0, "fast")
        events = _drain(net)
        by_payload = {e.payload: e.time for e in events}
        assert by_payload["fast"] == 10
        assert by_payload["slow"] == 100


latencies = st.integers(min_value=0, max_value=40)
links = st.builds(
    LinkProfile,
    latencies,
    latencies,  # max below min, equal to it, or above it
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    default=links,
    override=links,
    slow=st.dictionaries(st.integers(0, 2), st.floats(min_value=0.0, max_value=5.0), max_size=3),
    sends=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=40),
)
def test_latency_draws_match_the_randint_oracle(seed, default, override, slow, sends):
    config = NetworkConfig(n=3, default_link=default, link_overrides={(0, 1): override}, slow_nodes=slow)
    net = SimNetwork(config, seed)
    for i, (src, dst) in enumerate(sends):
        net.send(src, dst, i)

    # the oracle: one random() per send on a lossy link, then randint over the band
    rng = random.Random(seed)
    expected, dropped = [], 0
    for i, (src, dst) in enumerate(sends):
        link = config.link_overrides.get((src, dst), config.default_link)
        low, high = link.min_latency, link.max_latency
        if slow.get(src):
            low, high = int(low * slow[src]), int(high * slow[src])
        if link.drop_prob > 0 and rng.random() < link.drop_prob:
            dropped += 1
            continue
        expected.append((rng.randint(low, max(low, high)), i))

    assert [(e.time, e.payload) for e in _drain(net)] == sorted(expected)
    assert net.dropped == dropped
    assert net.rng.getstate() == rng.getstate()
