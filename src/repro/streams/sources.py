"""Synthetic data sources standing in for the paper's live feeds.

The authors' StreamBase deployment maintained "real-time data streams
from various projects, such as weather data feeds from a number of mini
weather stations producing weather records at one minute interval" and
"GPS track information from personal mobile devices" (Section 4.2).  The
generators here produce statistically plausible, seeded replacements with
the same schemas and rates, used by the examples, tests and benchmarks.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional

from repro.streams.schema import GPS_SCHEMA, WEATHER_SCHEMA, Schema
from repro.streams.tuples import StreamTuple, make_tuple


class WeatherSource:
    """Seeded generator of weather records (paper Example 1 schema).

    Records are produced at a fixed sampling interval (30 s in Example 1,
    60 s in the evaluation testbed).  Rain arrives in bursts: a latent
    storm state raises ``rainrate`` and ``windspeed`` together so that
    threshold policies such as ``rainrate > 5`` pass realistic fractions
    of tuples rather than almost none or almost all.
    """

    START_TIME = 1_330_560_000.0    # 2012-03-01, the paper's era
    STORM_PROBABILITY = 0.08
    STORM_DURATION_MEAN = 12.0

    def __init__(self, seed: int = 7, interval_seconds: float = 30.0):
        self._rng = random.Random(seed)
        self._time = self.START_TIME
        self.interval_seconds = interval_seconds
        self._storm_remaining = 0

    @property
    def schema(self) -> Schema:
        return WEATHER_SCHEMA

    def next_record(self) -> Dict[str, float]:
        rng = self._rng
        if self._storm_remaining <= 0 and rng.random() < self.STORM_PROBABILITY:
            self._storm_remaining = max(1, int(rng.expovariate(1.0 / self.STORM_DURATION_MEAN)))
        in_storm = self._storm_remaining > 0
        if in_storm:
            self._storm_remaining -= 1

        # Diurnal temperature cycle plus noise.
        day_fraction = (self._time % 86_400.0) / 86_400.0
        temperature = 27.0 + 4.0 * math.sin(2 * math.pi * (day_fraction - 0.25))
        temperature += rng.gauss(0.0, 0.6) - (2.0 if in_storm else 0.0)

        rainrate = max(0.0, rng.gauss(35.0, 25.0)) if in_storm else (
            max(0.0, rng.gauss(0.0, 1.2))
        )
        windspeed = max(0.0, rng.gauss(14.0 if in_storm else 6.0, 3.0))
        humidity = min(100.0, max(20.0, rng.gauss(88.0 if in_storm else 70.0, 6.0)))
        solarradiation = max(
            0.0,
            (900.0 * math.sin(math.pi * day_fraction) if 0.25 < day_fraction < 0.75 else 0.0)
            * (0.25 if in_storm else 1.0)
            + rng.gauss(0.0, 20.0),
        )
        record = {
            "samplingtime": self._time,
            "temperature": round(temperature, 2),
            "humidity": round(humidity, 2),
            "solarradiation": round(solarradiation, 2),
            "rainrate": round(rainrate, 2),
            "windspeed": round(windspeed, 2),
            "winddirection": rng.randrange(0, 360),
            "barometer": round(rng.gauss(1009.0 - (6.0 if in_storm else 0.0), 1.5), 2),
        }
        self._time += self.interval_seconds
        return record

    def records(self, count: int) -> List[Dict[str, float]]:
        return [self.next_record() for _ in range(count)]

    def tuples(self, count: int) -> List[StreamTuple]:
        return [make_tuple(WEATHER_SCHEMA, record) for record in self.records(count)]

    def __iter__(self) -> Iterator[Dict[str, float]]:
        while True:
            yield self.next_record()


class GpsSource:
    """Seeded generator of GPS track records from simulated devices."""

    START_TIME = WeatherSource.START_TIME

    def __init__(self, seed: int = 11, device_count: int = 4, interval_seconds: float = 5.0):
        self._rng = random.Random(seed)
        self._time = self.START_TIME
        self.interval_seconds = interval_seconds
        # Random walks anchored near Singapore (the authors' city).
        self._devices = [
            {
                "deviceid": f"device-{i:02d}",
                "latitude": 1.3521 + self._rng.uniform(-0.05, 0.05),
                "longitude": 103.8198 + self._rng.uniform(-0.05, 0.05),
                "heading": self._rng.randrange(0, 360),
            }
            for i in range(device_count)
        ]
        self._next_device = 0

    @property
    def schema(self) -> Schema:
        return GPS_SCHEMA

    def next_record(self) -> Dict[str, object]:
        rng = self._rng
        device = self._devices[self._next_device]
        self._next_device = (self._next_device + 1) % len(self._devices)
        device["heading"] = (device["heading"] + rng.randrange(-20, 21)) % 360
        speed = max(0.0, rng.gauss(12.0, 6.0))  # m/s
        distance_deg = speed * self.interval_seconds / 111_000.0
        radians = math.radians(device["heading"])
        device["latitude"] += distance_deg * math.cos(radians)
        device["longitude"] += distance_deg * math.sin(radians)
        record = {
            "samplingtime": self._time,
            "deviceid": device["deviceid"],
            "latitude": round(device["latitude"], 6),
            "longitude": round(device["longitude"], 6),
            "altitude": round(max(0.0, rng.gauss(20.0, 8.0)), 1),
            "speed": round(speed, 2),
            "heading": device["heading"],
        }
        self._time += self.interval_seconds / len(self._devices)
        return record

    def records(self, count: int) -> List[Dict[str, object]]:
        return [self.next_record() for _ in range(count)]

    def tuples(self, count: int) -> List[StreamTuple]:
        return [make_tuple(GPS_SCHEMA, record) for record in self.records(count)]


def integer_sequence_tuples(
    count: int, schema: Optional[Schema] = None, attribute: str = "a"
) -> List[StreamTuple]:
    """Tuples ``a=0, a=1, ...`` for the Section 3.4 reconstruction demo.

    The paper's Example 2 uses a single-attribute stream
    ``S = a0, a1, a2, ...``; consecutive integers make reconstructed
    values trivially checkable.
    """
    from repro.streams.schema import DataType, Field

    if schema is None:
        schema = Schema("s", [Field(attribute, DataType.INT)])
    return [make_tuple(schema, {attribute: i}) for i in range(count)]
