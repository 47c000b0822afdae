"""Write-ahead-log frame format: round-trips, torn tails, truncation."""

import struct

from repro.serve.wal import WriteAheadLog


def _wal(tmp_path):
    return WriteAheadLog(str(tmp_path / "shard.wal"))


ENTRIES = [
    {"op": "add", "id": "a", "gseq": 0, "attributes": {"title": "x"}},
    {"op": "update", "id": "a", "gseq": 1, "attributes": {"title": "y"}},
    {"op": "delete", "id": "a"},
]


class TestRoundTrip:
    def test_append_sync_replay(self, tmp_path):
        wal = _wal(tmp_path)
        for entry in ENTRIES:
            wal.append(entry)
        wal.sync()
        wal.close()
        assert WriteAheadLog(wal.path).replay() == ENTRIES

    def test_replay_limit(self, tmp_path):
        wal = _wal(tmp_path)
        for entry in ENTRIES:
            wal.append(entry)
        wal.sync()
        assert wal.replay(2) == ENTRIES[:2]
        assert wal.entry_count() == 3

    def test_missing_file_is_empty(self, tmp_path):
        wal = _wal(tmp_path)
        assert wal.replay() == []
        assert wal.entry_count() == 0

    def test_reset_truncates(self, tmp_path):
        wal = _wal(tmp_path)
        for entry in ENTRIES:
            wal.append(entry)
        wal.sync()
        wal.reset(wal.path)
        assert wal.entry_count() == 0
        wal.append(ENTRIES[0])
        wal.sync()
        assert wal.replay() == [ENTRIES[0]]

    def test_reset_to_a_new_path_leaves_the_old_log(self, tmp_path):
        wal = _wal(tmp_path)
        for entry in ENTRIES:
            wal.append(entry)
        wal.sync()
        old = wal.path
        wal.reset(str(tmp_path / "next.log"))
        wal.append(ENTRIES[0])
        wal.sync()
        assert wal.replay() == [ENTRIES[0]]
        assert WriteAheadLog(old).replay() == ENTRIES


class TestTornTail:
    def _written(self, tmp_path):
        wal = _wal(tmp_path)
        for entry in ENTRIES:
            wal.append(entry)
        wal.sync()
        wal.close()
        return wal.path

    def test_truncated_payload_ends_replay(self, tmp_path):
        path = self._written(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) - 3)
        assert WriteAheadLog(path).replay() == ENTRIES[:2]

    def test_truncated_header_ends_replay(self, tmp_path):
        path = self._written(tmp_path)
        with open(path, "ab") as handle:
            handle.write(struct.pack(">I", 99))  # half a header
        assert WriteAheadLog(path).replay() == ENTRIES

    def test_corrupt_checksum_ends_replay(self, tmp_path):
        path = self._written(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(-2, 2)
            handle.write(b"!!")  # flip bytes inside the last payload
        assert WriteAheadLog(path).replay() == ENTRIES[:2]


class TestTruncateTo:
    def test_drops_frames_past_count(self, tmp_path):
        wal = _wal(tmp_path)
        for entry in ENTRIES:
            wal.append(entry)
        wal.sync()
        wal.truncate_to(1)
        assert wal.replay() == ENTRIES[:1]

    def test_truncate_to_zero_without_file(self, tmp_path):
        _wal(tmp_path).truncate_to(0)  # no file, no error
