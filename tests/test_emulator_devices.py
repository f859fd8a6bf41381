"""Tests for the CPU, disk, and network device models."""

import pytest

from repro.emulator.cpu import Cpu
from repro.emulator.disk import Disk
from repro.emulator.net import Network
from repro.emulator.params import SystemParams, TimingMode
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def params():
    return SystemParams()


class TestCpu:
    def test_modeled_time_is_cycles_over_clock(self, sim, params):
        cpu = Cpu(sim, clock_hz=1000.0, params=params)

        def proc():
            yield from cpu.execute(cycles=500.0)

        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_fn_really_executes(self, sim, params):
        cpu = Cpu(sim, clock_hz=1e9, params=params)

        def proc():
            result = yield from cpu.execute(cycles=10, fn=lambda x: x * 2, args=(21,))
            return result

        p = sim.process(proc())
        sim.run()
        assert p.value == 42

    def test_serialization_on_one_core(self, sim, params):
        cpu = Cpu(sim, clock_hz=100.0, params=params)
        ends = []

        def worker():
            yield from cpu.execute(cycles=100.0)  # 1s each
            ends.append(sim.now)

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_utilization_full_when_saturated(self, sim, params):
        cpu = Cpu(sim, clock_hz=100.0, params=params)

        def worker():
            yield from cpu.execute(cycles=300.0)

        sim.process(worker())
        sim.run()
        assert cpu.utilization() == pytest.approx(1.0)

    def test_cycles_accounted(self, sim, params):
        cpu = Cpu(sim, clock_hz=100.0, params=params)

        def worker():
            yield from cpu.execute(cycles=30.0)
            yield from cpu.execute(cycles=70.0)

        sim.process(worker())
        sim.run()
        assert cpu.cycles_charged == pytest.approx(100.0)
        assert cpu.n_segments == 2

    def test_measured_mode_charges_scaled_wall_time(self, sim):
        params = SystemParams(
            timing_mode=TimingMode.MEASURED, measured_reference_hz=1e9
        )
        cpu = Cpu(sim, clock_hz=1e6, params=params)  # 1000x slower than ref

        def busy_fn():
            total = 0
            for i in range(20000):
                total += i
            return total

        def proc():
            yield from cpu.execute(fn=busy_fn)

        sim.process(proc())
        sim.run()
        # Some positive time passed, scaled up by the 1000x clock gap.
        assert sim.now > 0.0

    def test_needs_cycles_or_fn(self, sim, params):
        cpu = Cpu(sim, clock_hz=1e6, params=params)

        def proc():
            yield from cpu.execute()

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()

    def test_bad_clock(self, sim, params):
        with pytest.raises(ValueError):
            Cpu(sim, clock_hz=0.0, params=params)


class TestCpuInterrupts:
    """An interrupted segment gives the core back; later segments still run."""

    MS = 1e-3

    def _queued_waiter_interrupted(self, sim, params, interrupt_at):
        cpu = Cpu(sim, clock_hz=1000.0, params=params)  # 1 cycle = 1 ms
        ends = {}

        def segment(tag, start=0.0):
            if start:
                yield sim.timeout(start)
            yield from cpu.execute(cycles=1.0)
            ends[tag] = sim.now

        sim.process(segment("holder"))
        victim = sim.process(segment("victim"))

        def interrupter():
            yield sim.timeout(interrupt_at)
            victim.interrupt("killed")

        sim.process(interrupter())
        sim.process(segment("late", start=5 * self.MS))
        sim.run()
        return cpu, ends

    def test_waiter_interrupted_in_queue_releases_its_place(self, sim, params):
        cpu, ends = self._queued_waiter_interrupted(sim, params, 0.1 * self.MS)
        assert ends["holder"] == pytest.approx(1 * self.MS)
        assert "victim" not in ends
        assert ends["late"] == pytest.approx(6 * self.MS)
        assert cpu.n_segments == 2

    def test_waiter_interrupted_after_grant_posted_gives_core_back(self, sim, params):
        # The holder's release at 1 ms posts the victim's grant; the
        # interrupt lands at the same instant, before that grant is
        # processed, so the victim owns a core it never uses.
        cpu, ends = self._queued_waiter_interrupted(sim, params, 1 * self.MS)
        assert ends["holder"] == pytest.approx(1 * self.MS)
        assert "victim" not in ends
        assert ends["late"] == pytest.approx(6 * self.MS)
        assert cpu.n_segments == 2

    def test_interrupt_mid_segment_closes_busy_interval(self):
        from repro.emulator import ActivePlatform

        plat = ActivePlatform(SystemParams(n_hosts=1, n_asus=1))
        sim = plat.sim
        host = plat.hosts[0]
        cycles_1ms = host.cpu.clock_hz * self.MS
        done = []

        def worker():
            yield from host.compute(cycles=cycles_1ms)

        victim = sim.process(worker())

        def interrupter():
            yield sim.timeout(0.4 * self.MS)
            victim.interrupt("killed")

        def later():
            yield sim.timeout(2 * self.MS)
            done.append(host.cpu.utilization())
            yield from host.compute(cycles=cycles_1ms)
            done.append(sim.now)

        sim.process(interrupter())
        sim.process(later())
        sim.run()
        assert host.alive
        # Busy only up to the interrupt, then idle until the next segment.
        assert done[0] == pytest.approx(0.4 / 2)
        assert done[1] == pytest.approx(3 * self.MS)
        assert host.cpu.utilization() == pytest.approx(1.4 / 3)
        assert host.cpu.busy.total_busy == pytest.approx(1.4 * self.MS)


class TestDisk:
    def test_read_takes_bytes_over_rate(self, sim):
        disk = Disk(sim, rate=100.0)

        def proc():
            yield from disk.read(50)

        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_sequential_reads_stream_back_to_back(self, sim):
        disk = Disk(sim, rate=100.0)
        times = []

        def proc():
            for _ in range(4):
                yield from disk.read(100)
                times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [pytest.approx(t) for t in (1.0, 2.0, 3.0, 4.0)]
        assert disk.utilization() == pytest.approx(1.0)

    def test_write_behind_first_write_returns_immediately(self, sim):
        disk = Disk(sim, rate=100.0)
        t_after_first = []

        def proc():
            yield from disk.write(100)
            t_after_first.append(sim.now)
            yield from disk.write(100)  # waits for first to drain
            t_after_first.append(sim.now)

        sim.process(proc())
        sim.run()
        assert t_after_first[0] == pytest.approx(0.0)
        assert t_after_first[1] == pytest.approx(1.0)

    def test_drain_waits_for_outstanding_writes(self, sim):
        disk = Disk(sim, rate=100.0)

        def proc():
            yield from disk.write(100)
            yield from disk.drain()
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(1.0)

    def test_stats(self, sim):
        disk = Disk(sim, rate=1000.0)

        def proc():
            yield from disk.read(10)
            yield from disk.write(30)

        sim.process(proc())
        sim.run()
        assert disk.stats.n_reads == 1
        assert disk.stats.n_writes == 1
        assert disk.stats.bytes_read == 10
        assert disk.stats.bytes_written == 30
        assert disk.stats.n_ops == 2
        assert disk.stats.total_bytes == 40

    def test_negative_sizes_rejected(self, sim):
        disk = Disk(sim, rate=100.0)

        def bad_read():
            yield from disk.read(-1)

        sim.process(bad_read())
        with pytest.raises(ValueError):
            sim.run()

    def test_bad_rate(self, sim):
        with pytest.raises(ValueError):
            Disk(sim, rate=0.0)


class TestNetwork:
    def test_send_recv_roundtrip(self, sim):
        net = Network(sim, bandwidth=1000.0, latency=0.1)
        net.register("a")
        net.register("b")

        def sender():
            yield from net.send("a", "b", payload="hello", nbytes=100)

        def receiver():
            msg = yield from net.recv("b")
            return (msg.payload, sim.now)

        sim.process(sender())
        p = sim.process(receiver())
        sim.run()
        payload, t = p.value
        assert payload == "hello"
        # 100B at 1000B/s = 0.1s tx + 0.1s latency.
        assert t == pytest.approx(0.2)

    def test_sender_blocks_only_for_tx(self, sim):
        net = Network(sim, bandwidth=1000.0, latency=5.0)
        net.register("a")
        net.register("b")

        def sender():
            yield from net.send("a", "b", payload=None, nbytes=100)
            return sim.now

        p = sim.process(sender())
        sim.run()
        assert p.value == pytest.approx(0.1)  # latency not charged to sender

    def test_link_serializes_messages(self, sim):
        net = Network(sim, bandwidth=100.0, latency=0.0)
        net.register("a")
        net.register("b")
        arrivals = []

        def sender():
            yield from net.send("a", "b", None, nbytes=100)
            yield from net.send("a", "b", None, nbytes=100)

        def receiver():
            for _ in range(2):
                yield from net.recv("b")
                arrivals.append(sim.now)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_distinct_links_are_parallel(self, sim):
        net = Network(sim, bandwidth=100.0, latency=0.0)
        for n in ("a", "b", "c"):
            net.register(n)
        arrivals = {}

        def sender(dst):
            yield from net.send("a", dst, None, nbytes=100)

        def receiver(name):
            yield from net.recv(name)
            arrivals[name] = sim.now

        sim.process(sender("b"))
        sim.process(sender("c"))
        sim.process(receiver("b"))
        sim.process(receiver("c"))
        sim.run()
        # Different destination links do not serialise with each other.
        assert arrivals["b"] == pytest.approx(1.0)
        assert arrivals["c"] == pytest.approx(1.0)

    def test_unregistered_destination_rejected(self, sim):
        net = Network(sim, bandwidth=100.0, latency=0.0)
        net.register("a")

        def sender():
            yield from net.send("a", "ghost", None, nbytes=1)

        sim.process(sender())
        with pytest.raises(KeyError):
            sim.run()

    def test_byte_accounting(self, sim):
        net = Network(sim, bandwidth=1e6, latency=0.0)
        net.register("a")
        net.register("b")

        def sender():
            yield from net.send("a", "b", None, nbytes=123)

        sim.process(sender())
        sim.run()
        assert net.bytes_total == 123
        assert net.n_messages == 1
