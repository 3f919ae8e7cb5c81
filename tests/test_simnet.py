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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["send", "timer", "inject"]), st.integers(0, 3), st.integers(0, 6)), max_size=40))
    def test_groups_are_the_pops_of_one_ms(self, ops):
        """``pop_group`` hands out the same events as ``pop`` one by one, cut
        at each change of time, across both heaps and their ties."""

        def build() -> SimNetwork:
            net = SimNetwork(NetworkConfig(n=4, default_link=LinkProfile(0, 3)), seed=5)
            for i, (op, node, delay) in enumerate(ops):
                if op == "send":
                    net.send(node, (node + 1) % 4, i)
                elif op == "timer":
                    net.timer(node, delay, i)
                else:
                    net.inject(delay, "submit", node, i)
            return net

        net, groups = build(), []
        while group := net.pop_group():
            assert {e.time for e in group} == {net.now}
            groups.append(group)
        assert [e for group in groups for e in group] == _drain(build())
        assert [group[0].time for group in groups] == sorted({group[0].time for group in groups})

    def test_an_event_queued_during_a_group_comes_after_it(self):
        net = SimNetwork(NetworkConfig(n=2, default_link=LinkProfile(5, 5)), seed=1)
        net.send(0, 1, "a")
        net.send(1, 0, "b")
        assert [e.payload for e in net.pop_group()] == ["a", "b"]
        net.timer(0, 0, "now")
        net.send(0, 1, "later")
        assert [e.payload for e in net.pop_group()] == ["now"] and net.now == 5
        assert [e.payload for e in net.pop_group()] == ["later"] and net.pop_group() == []


class _Gossiper:
    """A sender that holds what it gossips through a quiet stretch and sends it
    to the other nodes of four as one tuple, as a consensus node sends its
    ``Request``s; ``hold=False`` sends each item at once instead."""

    def __init__(self, net: SimNetwork, src: int, hold: bool = True):
        self.net, self.src, self.hold, self.items = net, src, hold, []

    def gossip(self, item) -> None:
        if not self.items and self.hold:
            self.net.hold(self.flush)
        self.items.append(item)
        if not self.hold:
            self.flush()

    def flush(self) -> None:
        items = tuple(self.items)
        self.items.clear()
        self.net.broadcast(self.src, [dst for dst in range(4) if dst != self.src], items)


class TestHold:
    def test_held_gossip_goes_out_before_the_next_action(self):
        """Held flushes run before the next send, timer, inject or pop, in the
        order they were held: one message per peer for each sender."""
        net = SimNetwork(NetworkConfig(n=4, default_link=LinkProfile(5, 5)), seed=1)
        senders = {src: _Gossiper(net, src) for src in (1, 2)}
        for src, item in [(2, "a"), (1, "b"), (2, "c")]:
            senders[src].gossip(item)
        assert net.sent == 0 and len(net) == 0
        net.timer(0, 1, "t")
        assert net.sent == 6
        senders[1].gossip("d")
        assert [(e.src, e.node, e.payload) for e in _drain(net)] == [
            (-1, 0, "t"),
            *((2, dst, ("a", "c")) for dst in (0, 1, 3)),
            *((1, dst, ("b",)) for dst in (0, 2, 3)),
            *((1, dst, ("d",)) for dst in (0, 2, 3)),
        ]
        assert net.sent == 9

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["gossip", "send", "timer", "inject", "pop"]), st.integers(0, 3), st.integers(0, 6)),
            max_size=40,
        )
    )
    def test_one_gossip_per_sender_per_stretch_sends_as_sending_at_once(self, ops):
        """Where no sender gossips twice between two other actions, holding
        makes the same draws and seqs as sending each item at once."""

        def run(hold: bool):
            net = SimNetwork(NetworkConfig(n=4, default_link=LinkProfile(0, 9, drop_prob=0.2)), seed=5)
            senders = [_Gossiper(net, src, hold) for src in range(4)]
            popped, gossiped = [], set()
            for i, (op, node, delay) in enumerate(ops):
                if op == "gossip":
                    if node not in gossiped:
                        gossiped.add(node)
                        senders[node].gossip(i)
                    continue
                gossiped.clear()
                if op == "send":
                    net.send(node, (node + 1) % 4, i)
                elif op == "timer":
                    net.timer(node, delay, i)
                elif op == "inject":
                    net.inject(delay, "submit", node, i)
                else:
                    popped.append(net.pop())
            return popped + _drain(net), net.sent, net.dropped

        assert run(True) == run(False)


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
