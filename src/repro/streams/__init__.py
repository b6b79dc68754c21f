"""Stream workload substrate: synthetic and simulated real-world streams.

Synthetic generators isolate single statistical features
(:class:`RandomWalkStream`, :class:`OrnsteinUhlenbeckStream`,
:class:`SinusoidStream`, ...); the simulated real-world streams
(:class:`GpsTrajectory`, :class:`TemperatureSensor`, :class:`RttTrace`)
substitute for the paper's proprietary traces — see DESIGN.md's substitution
table.
"""

from repro.streams.base import (
    Reading,
    StreamSource,
    take,
    timestamps,
    truths,
    values,
)
from repro.streams.mobility import GpsTrajectory
from repro.streams.network_traces import RttTrace, TrafficRateTrace
from repro.streams.noise import Dropout, GaussianNoise, OutlierInjector
from repro.streams.replay import RecordedStream, from_csv, record, to_csv
from repro.streams.sensors import TemperatureSensor
from repro.streams.synthetic import (
    CompositeStream,
    OrnsteinUhlenbeckStream,
    PiecewiseLinearStream,
    RampStream,
    RandomWalkStream,
    RegimeSwitchingStream,
    SinusoidStream,
)

__all__ = [
    "Reading",
    "StreamSource",
    "take",
    "values",
    "truths",
    "timestamps",
    "RandomWalkStream",
    "OrnsteinUhlenbeckStream",
    "SinusoidStream",
    "RampStream",
    "PiecewiseLinearStream",
    "RegimeSwitchingStream",
    "CompositeStream",
    "GpsTrajectory",
    "TemperatureSensor",
    "RttTrace",
    "TrafficRateTrace",
    "GaussianNoise",
    "OutlierInjector",
    "Dropout",
    "RecordedStream",
    "record",
    "to_csv",
    "from_csv",
]
