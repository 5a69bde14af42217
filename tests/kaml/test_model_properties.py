"""Property-based model checking: the KAML SSD must behave like a dict.

Hypothesis drives random put/get/delete/drain/crash-recover sequences and
compares the device against a plain dictionary model.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


KEYS = st.integers(0, 15)
SIZES = st.sampled_from([64, 300, 1024, 3000])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, SIZES),
        st.tuples(st.just("batch"), st.lists(st.tuples(KEYS, SIZES), min_size=1, max_size=4)),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("drain")),
        st.tuples(st.just("crash_recover")),
    ),
    max_size=30,
)


def make_ssd():
    env = Environment()
    geometry = FlashGeometry(
        channels=2, chips_per_channel=2, blocks_per_chip=16, pages_per_block=8
    )
    config = ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=4, flush_timeout_us=300.0),
    )
    return env, KamlSsd(env, config)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
def test_device_matches_dict_model(ops):
    env, ssd = make_ssd()
    model = {}
    version = [0]

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        for op in ops:
            kind = op[0]
            if kind == "put":
                _k, key, size = op
                version[0] += 1
                value = ("v", version[0])
                yield from ssd.put([PutItem(nsid, key, value, size)])
                model[key] = value
            elif kind == "batch":
                items = []
                for key, size in op[1]:
                    version[0] += 1
                    value = ("b", version[0])
                    items.append(PutItem(nsid, key, value, size))
                    model[key] = value
                yield from ssd.put(items)
            elif kind == "get":
                value = yield from ssd.get(nsid, op[1])
                assert value == model.get(op[1]), f"get({op[1]})"
            elif kind == "delete":
                removed = yield from ssd.delete(nsid, op[1])
                assert removed == (op[1] in model)
                model.pop(op[1], None)
            elif kind == "drain":
                yield from ssd.drain()
            elif kind == "crash_recover":
                yield from ssd.drain()
                yield env.timeout(50000.0)
                ssd.power_loss()
                yield from ssd.recover()
        # Final audit: every key matches the model.
        for key in range(16):
            value = yield from ssd.get(nsid, key)
            assert value == model.get(key), f"final get({key})"
        return True

    proc = env.process(flow())
    env.run_until(proc)
    assert proc.value is True
