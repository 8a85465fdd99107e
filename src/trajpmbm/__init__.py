"""Poisson multi-Bernoulli mixture trackers over sets of trajectories."""

from .trajectory import (
    MixtureComponent,
    TimeWindow,
    Trajectory,
    TrajectoryMixture,
    birth_death_pmf,
    prune_mixture,
)
from .gaussseq import InfoSeq, ModelLG, MomentSeq, make_seq
from .models import (
    BirthComponent,
    BirthModel,
    Rectangle,
    SensorModel,
    SurvivalModel,
    birth_intensity_at,
    clutter_density,
    constant_velocity_model,
)
from .density import (
    GlobalHypothesis,
    LocalHypothesis,
    PmbmDensity,
    PruneThresholds,
    Track,
)
from .marginal import AliveQuery, materialize_mixture, marginalize_pmbm
from .tracker import PmbmTracker, TrackerConfig, TrackerState
from .estimate import extract_set

__version__ = "0.1.0"
