"""Tests for association-state replication (hostapd sta_info sync)."""

from repro.core.assoc_sync import AssociationDirectory, DepartedMemory, StaInfo


def info(client="client0", first_ap="ap0", authorized=True):
    return StaInfo(
        client=client, associated_at_us=0, first_ap=first_ap,
        authorized=authorized,
    )


def test_admit_and_lookup():
    directory = AssociationDirectory()
    assert directory.admit(info())
    assert directory.is_associated("client0")
    assert directory.get("client0").first_ap == "ap0"


def test_double_admit_rejected():
    directory = AssociationDirectory()
    assert directory.admit(info())
    assert not directory.admit(info(first_ap="ap3"))
    # first writer wins (replication races resolve deterministically)
    assert directory.get("client0").first_ap == "ap0"


def test_unauthorized_not_associated():
    directory = AssociationDirectory()
    directory.admit(info(authorized=False))
    assert not directory.is_associated("client0")


def test_remove():
    directory = AssociationDirectory()
    directory.admit(info())
    directory.remove("client0")
    assert not directory.is_associated("client0")
    directory.remove("client0")  # idempotent


def test_clients_listing():
    directory = AssociationDirectory()
    directory.admit(info("a"))
    directory.admit(info("b"))
    assert directory.clients() == {"a", "b"}


# ----------------------------------------------------------------------
# DepartedMemory: the one departed-client memory (AP and controller)
# ----------------------------------------------------------------------


def test_departed_memory_evicts_oldest_at_the_cap():
    memory = DepartedMemory(cap=3)
    for i in range(5):
        memory.depart(f"client{i}", now_us=i)
    assert len(memory) == 3
    assert "client0" not in memory and "client1" not in memory
    assert all(f"client{i}" in memory for i in (2, 3, 4))


def test_redeparture_keeps_fifo_position_and_takes_the_new_time():
    memory = DepartedMemory(cap=3)
    for i in range(3):
        memory.depart(f"client{i}", now_us=i)
    memory.depart("client0", now_us=10)  # still the oldest entry
    assert memory.snapshot() == [["client0", 10], ["client1", 1], ["client2", 2]]
    memory.depart("client3", now_us=11)
    assert "client0" not in memory


def test_stale_sta_sync_is_a_replay_and_a_newer_one_lifts_the_guard():
    memory = DepartedMemory()
    assert not memory.is_replay(info())  # never departed: not a replay
    memory.depart("client0", now_us=100)
    stale = StaInfo(client="client0", associated_at_us=100, first_ap="ap0")
    assert memory.is_replay(stale)
    assert "client0" in memory  # a replay never lifts the guard
    fresh = StaInfo(client="client0", associated_at_us=101, first_ap="ap0")
    assert not memory.is_replay(fresh)
    assert "client0" not in memory  # re-admission forgets the departure


def test_departed_memory_snapshot_round_trip_keeps_order():
    memory = DepartedMemory(cap=4)
    for i, name in enumerate(("zed", "alpha", "mid")):
        memory.depart(name, now_us=i)
    restored = DepartedMemory(cap=4)
    restored.restore(memory.snapshot())
    assert restored.snapshot() == [["zed", 0], ["alpha", 1], ["mid", 2]]
