"""Wi-Fi Goes to Town (SIGCOMM 2017) — reproduction library.

A microsecond-resolution discrete-event reproduction of the paper's
roadside picocell testbed: the WGTT controller/AP protocol suite
(CSI-driven AP selection, cyclic-queue switching, block-ACK forwarding,
uplink de-duplication), the Enhanced 802.11r baseline, and the full
802.11n MAC/PHY + channel + transport substrate they run on.

Quickstart::

    from repro.scenarios import Testbed, TestbedConfig
    from repro.apps import BulkFlow

    testbed = Testbed(TestbedConfig(seed=1, scheme="wgtt",
                                    client_speeds_mph=[15.0]))
    flow = testbed.add_downlink_tcp_flow(client_index=0)
    testbed.run_seconds(10.0)
    print(flow.throughput_mbps())
"""

__version__ = "1.0.0"
