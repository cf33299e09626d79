from __future__ import annotations

import os

import pytest
from hypothesis import settings

from ircmap.gazetteer import build_gazetteer, default_data_dir
from ircmap.wikidata import CacheStore, LabelMap, Mode, ReplayTransport, WikidataClient

from support import REPLAY_DIR, CountingTransport

# The "ci" profile prints a failing example's @reproduce_failure blob, so a
# property that fails only in CI can be replayed locally.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def data_dir():
    return default_data_dir()


@pytest.fixture(scope="session")
def gazetteer(data_dir):
    return build_gazetteer(data_dir)


@pytest.fixture(scope="session")
def label_map(gazetteer, data_dir):
    return LabelMap.from_gazetteer(gazetteer, data_dir / "wikidata_labels.tsv")


@pytest.fixture
def make_replay_client(label_map):
    """Factory for clients answering from the recorded fixtures, no network.

    Returns (client, counting_transport); retries and rate limiting are
    disabled so replay misses fail fast.
    """

    def factory(cache: CacheStore | None = None, mode=Mode.ONLINE, **kwargs):
        transport = CountingTransport(ReplayTransport(REPLAY_DIR))
        client = WikidataClient(
            cache=cache if cache is not None else CacheStore(),
            label_map=label_map,
            mode=mode,
            transport=transport,
            rate_limit=0.0,
            max_attempts=kwargs.pop("max_attempts", 1),
            sleep=lambda seconds: None,
            **kwargs,
        )
        return client, transport

    return factory
