"""Tests for the load model, the paper's test loads and the generators."""

import hashlib

import numpy as np
import pytest

from repro.workloads import generator as generator_module
from repro.workloads.generator import (
    ILS_LIKE_RANDOM_CONFIG,
    LOAD_GENERATOR_REGISTRY,
    RandomLoadConfig,
    bursty_load,
    duty_cycle_load,
    duty_cycled_sensor_load,
    generate_random_load,
    make_load,
    mmpp_load,
    sensor_node_load,
    trace_load,
)
from repro.workloads.load import Epoch, Load, idle_epoch, job_epoch
from repro.workloads.profiles import (
    HIGH_CURRENT,
    JOB_DURATION,
    LOW_CURRENT,
    PAPER_LOAD_NAMES,
    continuous_alternating_load,
    intermittent_load,
    paper_loads,
    random_intermittent_load,
)


class TestEpoch:
    def test_job_and_idle_classification(self):
        assert job_epoch(0.25, 1.0).is_job
        assert idle_epoch(1.0).is_idle

    def test_charge(self):
        assert job_epoch(0.5, 2.0).charge == pytest.approx(1.0)

    def test_invalid_epochs_rejected(self):
        with pytest.raises(ValueError):
            Epoch(current=-0.1, duration=1.0)
        with pytest.raises(ValueError):
            Epoch(current=0.1, duration=0.0)
        with pytest.raises(ValueError):
            job_epoch(0.0, 1.0)


class TestLoad:
    def make_load(self) -> Load:
        return Load(
            name="demo",
            epochs=(job_epoch(0.5, 1.0), idle_epoch(2.0), job_epoch(0.25, 1.0)),
        )

    def test_totals(self):
        load = self.make_load()
        assert load.total_duration == pytest.approx(4.0)
        assert load.total_charge == pytest.approx(0.75)
        assert load.job_count == 2

    def test_segments_round_trip(self):
        load = self.make_load()
        rebuilt = Load.from_segments("copy", load.segments())
        assert rebuilt.segments() == load.segments()

    def test_epoch_start_and_end_times(self):
        load = self.make_load()
        assert load.epoch_start_times() == [0.0, 1.0, 3.0]
        assert load.epoch_end_times() == [1.0, 3.0, 4.0]

    def test_current_at(self):
        load = self.make_load()
        assert load.current_at(0.5) == pytest.approx(0.5)
        assert load.current_at(2.0) == 0.0
        assert load.current_at(3.5) == pytest.approx(0.25)
        assert load.current_at(100.0) == 0.0

    def test_truncated(self):
        load = self.make_load()
        prefix = load.truncated(1.5)
        assert prefix.total_duration == pytest.approx(1.5)
        assert len(prefix) == 2

    def test_repeated_and_scaled(self):
        load = self.make_load()
        assert load.repeated(3).total_duration == pytest.approx(12.0)
        assert load.scaled_current(2.0).total_charge == pytest.approx(1.5)

    def test_empty_load_rejected(self):
        with pytest.raises(ValueError):
            Load(name="empty", epochs=())


class TestPaperLoads:
    def test_all_ten_loads_present(self, loads):
        assert set(loads) == set(PAPER_LOAD_NAMES)

    def test_job_levels_and_duration(self, loads):
        for name, load in loads.items():
            for epoch in load.epochs:
                if epoch.is_job:
                    assert epoch.current in (LOW_CURRENT, HIGH_CURRENT)
                    assert epoch.duration == pytest.approx(JOB_DURATION)

    def test_continuous_loads_have_no_idle(self, loads):
        for name in ("CL 250", "CL 500", "CL alt"):
            assert all(epoch.is_job for epoch in loads[name].epochs)

    def test_intermittent_idle_durations(self, loads):
        short_idles = [e.duration for e in loads["ILs 250"].epochs if e.is_idle]
        long_idles = [e.duration for e in loads["IL` 250"].epochs if e.is_idle]
        assert all(duration == pytest.approx(1.0) for duration in short_idles)
        assert all(duration == pytest.approx(2.0) for duration in long_idles)

    def test_alternating_load_starts_with_high_current(self, loads):
        # Calibrated against Table 3 (see EXPERIMENTS.md): the alternating
        # loads begin with the 500 mA job.
        jobs = [epoch for epoch in loads["CL alt"].epochs if epoch.is_job]
        assert jobs[0].current == pytest.approx(HIGH_CURRENT)
        assert jobs[1].current == pytest.approx(LOW_CURRENT)

    def test_loads_are_long_enough_for_the_paper_experiments(self, loads):
        # Table 5's longest lifetime is just under 80 minutes; the generated
        # loads must comfortably exceed that.
        for load in loads.values():
            assert load.total_duration >= 150.0

    def test_random_loads_are_reproducible(self):
        first = random_intermittent_load(seed=7)
        second = random_intermittent_load(seed=7)
        assert first.segments() == second.segments()
        different = random_intermittent_load(seed=8)
        assert first.segments() != different.segments()

    def test_profile_constructors_validate_inputs(self):
        with pytest.raises(ValueError):
            intermittent_load(0.25, idle_duration=1.0, total_duration=0.0)
        with pytest.raises(ValueError):
            continuous_alternating_load(total_duration=-1.0)


class TestGenerators:
    def test_random_load_respects_levels_and_step(self):
        config = RandomLoadConfig(levels=(0.2, 0.4), duration_step=0.25, total_duration=30.0)
        load = generate_random_load(seed=3, config=config)
        for epoch in load.epochs:
            if epoch.is_job:
                assert epoch.current in (0.2, 0.4)
            assert (epoch.duration / 0.25) == pytest.approx(round(epoch.duration / 0.25))
        assert load.total_duration >= 30.0

    def test_random_load_is_seed_deterministic(self):
        assert generate_random_load(1).segments() == generate_random_load(1).segments()

    # Digests of the epochs (current, duration, label) of seeds 0-199,
    # recorded before epochs were interned and the draw methods bound: the
    # generator must keep drawing the same stream and building equal loads.
    PINNED_DIGESTS = {
        "default": "716989bdc41e62ed36829fd6df9bd039ddd8802e948d89a25904fd1d9b70b05a",
        "ils-like": "bd26f950a486e62dd9b39c75f9ef90df2e26f9b992d39e4594fc4741e95ceb37",
        "numpy-rng": "73cd4acecd9ed7ae903dd9dd32ab3ecb1c84410d84c48aa1dbdfaa5c9defda4c",
    }

    @staticmethod
    def _digest(loads):
        digest = hashlib.sha256()
        for load in loads:
            epochs = [(e.current, e.duration, e.label) for e in load.epochs]
            digest.update(repr((load.name, epochs)).encode())
        return digest.hexdigest()

    def test_random_load_stream_is_pinned(self):
        rng = np.random.default_rng(0)
        digests = {
            "default": self._digest(generate_random_load(s) for s in range(200)),
            "ils-like": self._digest(
                generate_random_load(s, ILS_LIKE_RANDOM_CONFIG) for s in range(200)
            ),
            "numpy-rng": self._digest(
                generate_random_load(config=ILS_LIKE_RANDOM_CONFIG, rng=rng)
                for _ in range(200)
            ),
        }
        assert digests == self.PINNED_DIGESTS

    def test_epoch_cache_stays_under_its_cap(self):
        fine = RandomLoadConfig(
            levels=(0.25, 0.5),
            job_duration_range=(0.5, 1.5),
            idle_duration_range=(0.5, 2.0),
            duration_step=1e-4,
        )
        # About 6,000 distinct epochs in all, more than the cache holds.
        loads = [generate_random_load(seed, fine) for seed in range(60)]
        info = generator_module._shared_epoch.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize
        # Evicting an epoch never changes a load.
        generator_module._shared_epoch.cache_clear()
        assert generate_random_load(3, fine) == loads[3]

    def test_interning_keeps_integer_levels_integer(self):
        generate_random_load(0, RandomLoadConfig(levels=(1.0,), duration_step=1.0))
        load = generate_random_load(0, RandomLoadConfig(levels=(1,), duration_step=1))
        assert all(
            type(epoch.current) is int and type(epoch.duration) is int
            for epoch in load.epochs
            if epoch.is_job
        )

    def test_bursty_load_structure(self):
        load = bursty_load(burst_current=0.5, burst_jobs=3, rest_duration=5.0, cycles=2)
        assert load.job_count == 6
        idles = [epoch for epoch in load.epochs if epoch.is_idle]
        assert len(idles) == 2 and idles[0].duration == pytest.approx(5.0)

    def test_duty_cycle_load(self):
        load = duty_cycle_load(current=0.3, period=2.0, duty_cycle=0.25, cycles=4)
        assert load.total_duration == pytest.approx(8.0)
        assert load.total_charge == pytest.approx(0.3 * 0.5 * 4)

    def test_duty_cycle_validation(self):
        with pytest.raises(ValueError):
            duty_cycle_load(current=0.3, period=2.0, duty_cycle=1.5, cycles=1)

    def test_sensor_node_load_has_three_phases_per_cycle(self):
        load = sensor_node_load(cycles=5)
        assert len(load) == 15
        labels = {epoch.label for epoch in load.epochs}
        assert {"sense", "transmit", "sleep"} <= labels

    def test_invalid_generator_configs_rejected(self):
        with pytest.raises(ValueError):
            RandomLoadConfig(levels=())
        with pytest.raises(ValueError):
            bursty_load(0.5, burst_jobs=0, rest_duration=1.0, cycles=1)
        with pytest.raises(ValueError):
            sensor_node_load(cycles=0)


class TestMmppGenerator:
    def test_structure_and_step_rounding(self):
        load = mmpp_load(seed=3, on_current=0.5, total_duration=60.0)
        assert load.total_duration >= 60.0
        for epoch in load.epochs:
            assert epoch.current in (0.0, 0.5)
            assert (epoch.duration / 0.25) == pytest.approx(
                round(epoch.duration / 0.25)
            )
        assert any(epoch.label == "burst" for epoch in load.epochs)

    def test_seed_determinism(self):
        assert mmpp_load(seed=9).segments() == mmpp_load(seed=9).segments()
        assert mmpp_load(seed=9).segments() != mmpp_load(seed=10).segments()

    def test_rng_families_agree_on_the_same_uniform_stream(self):
        # The exponential draws are built from single uniforms, so a stdlib
        # Random and a numpy Generator producing the same uniforms would
        # produce the same load; here we check each family reproduces
        # itself exactly.
        import random

        import numpy as np

        stdlib = mmpp_load(rng=random.Random(5))
        assert stdlib.segments() == mmpp_load(rng=random.Random(5)).segments()
        numpy_rng = mmpp_load(rng=np.random.default_rng(5))
        assert (
            numpy_rng.segments()
            == mmpp_load(rng=np.random.default_rng(5)).segments()
        )

    def test_background_traffic_keeps_off_state_as_jobs(self):
        load = mmpp_load(seed=4, off_current=0.05, total_duration=40.0)
        labels = {epoch.label for epoch in load.epochs if epoch.is_job}
        assert "background" in labels
        assert all(epoch.is_job for epoch in load.epochs)

    def test_validation(self):
        with pytest.raises(ValueError):
            mmpp_load(seed=1, on_current=0.0)
        with pytest.raises(ValueError):
            mmpp_load(seed=1, mean_on=0.0)
        with pytest.raises(ValueError):
            mmpp_load(seed=1, total_duration=-1.0)
        with pytest.raises(ValueError):
            mmpp_load()  # neither seed nor rng
        with pytest.raises(ValueError):
            import random

            mmpp_load(seed=1, rng=random.Random(1))


class TestDutyCycledSensorGenerator:
    def test_transmit_every_kth_cycle(self):
        load = duty_cycled_sensor_load(transmit_every=4, cycles=8)
        transmits = [epoch for epoch in load.epochs if epoch.label == "transmit"]
        senses = [epoch for epoch in load.epochs if epoch.label == "sense"]
        assert len(senses) == 8
        assert len(transmits) == 2
        assert {epoch.label for epoch in load.epochs} == {
            "sense", "transmit", "sleep",
        }

    def test_unjittered_profile_is_deterministic_without_randomness(self):
        first = duty_cycled_sensor_load(cycles=6)
        second = duty_cycled_sensor_load(cycles=6)
        assert first.segments() == second.segments()

    def test_jitter_is_seed_deterministic_and_perturbs_sleep(self):
        jittered = duty_cycled_sensor_load(jitter=0.4, seed=2, cycles=20)
        again = duty_cycled_sensor_load(jitter=0.4, seed=2, cycles=20)
        plain = duty_cycled_sensor_load(cycles=20)
        assert jittered.segments() == again.segments()
        assert jittered.segments() != plain.segments()

    def test_validation(self):
        with pytest.raises(ValueError):
            duty_cycled_sensor_load(period=0.5)  # sense+transmit won't fit
        with pytest.raises(ValueError):
            duty_cycled_sensor_load(seed=1)  # seed without jitter
        with pytest.raises(ValueError):
            duty_cycled_sensor_load(jitter=0.5)  # jitter without seed/rng
        with pytest.raises(ValueError):
            duty_cycled_sensor_load(jitter=1.5, seed=1)
        with pytest.raises(ValueError):
            duty_cycled_sensor_load(cycles=0)


class TestTraceGenerator:
    def test_coalesces_equal_currents_and_maps_zero_to_idle(self):
        load = trace_load([[0.5, 1.0], [0.5, 2.0], [0.0, 1.0], [0.25, 3.0]])
        assert load.segments() == [(0.5, 3.0), (0.0, 1.0), (0.25, 3.0)]
        assert load.epochs[1].is_idle

    def test_repeat_coalesces_across_the_seam(self):
        load = trace_load([[0.5, 1.0], [0.0, 1.0], [0.5, 2.0]], repeat=2)
        # The trailing 0.5 of repeat 1 merges with the leading 0.5 of
        # repeat 2.
        assert load.segments() == [
            (0.5, 1.0), (0.0, 1.0), (0.5, 3.0), (0.0, 1.0), (0.5, 2.0),
        ]

    def test_time_scale_rescales_durations(self):
        seconds = trace_load([[0.5, 60.0], [0.0, 30.0]], time_scale=1.0 / 60.0)
        assert seconds.total_duration == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_load([])
        with pytest.raises(ValueError):
            trace_load([[0.5]])
        with pytest.raises(ValueError):
            trace_load([[-0.1, 1.0]])
        with pytest.raises(ValueError):
            trace_load([[0.5, 0.0]])
        with pytest.raises(ValueError):
            trace_load([[0.5, 1.0]], repeat=0)
        with pytest.raises(ValueError):
            trace_load([[0.5, 1.0]], time_scale=0.0)


class TestGeneratorRegistry:
    def test_new_generators_are_registered(self):
        for name in ("mmpp", "duty-cycled-sensor", "trace"):
            assert name in LOAD_GENERATOR_REGISTRY

    def test_make_load_round_trips_the_registry(self):
        assert (
            make_load("mmpp", seed=3).segments() == mmpp_load(seed=3).segments()
        )
        assert (
            make_load("trace", trace=[[0.5, 1.0]]).segments()
            == trace_load([[0.5, 1.0]]).segments()
        )

    def test_unknown_generator_lists_known_names(self):
        with pytest.raises(ValueError, match="mmpp"):
            make_load("warp-core")
