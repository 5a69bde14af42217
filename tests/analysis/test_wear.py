"""Write-amplification and lifetime analysis against a live device."""

from repro.analysis.wear import wear_report
from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


def churned_device():
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12,
        pages_per_block=4, erase_endurance=500,
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=1, flush_timeout_us=200.0)
    )
    ssd = KamlSsd(env, config)

    def churn():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        for i in range(300):
            yield from ssd.put([PutItem(nsid, i % 4, ("w", i), 2048)])
            yield env.timeout(1500.0)
        yield from ssd.drain()

    proc = env.process(churn())
    env.run_until(proc)
    return ssd


def test_wear_report_fields():
    ssd = churned_device()
    report = wear_report(ssd)
    assert report.host_bytes_written >= 300 * 2048
    assert report.flash_bytes_programmed > 0
    assert report.write_amplification >= 1.0
    assert report.erases_performed > 0
    assert 0 < report.mean_erase_count <= report.max_erase_count
    assert 0 < report.life_used < 1


def test_fresh_device_reports_no_write_amplification():
    env = Environment()
    config = ReproConfig.small()
    ssd = KamlSsd(env, config.with_(kaml=KamlParams(num_logs=4)))
    report = wear_report(ssd)
    assert report.write_amplification == 0.0
    assert report.life_used == 0.0
