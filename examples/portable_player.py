"""Portable audio player with file system and DRM (paper Sections 6-7).

End-to-end consumer flow: rip tracks into the player's FAT-like file
system (including a foreign CD/MP3 directory tree), fetch licences from
the store's server, and play — with play counts, device binding, and the
analog-only output path enforced.

Run:  python examples/portable_player.py
Also registered as a streaming workload:  python -m repro.runtime.run portable_player
"""

from repro.audio import AudioDecoder, AudioEncoder, AudioEncoderConfig
from repro.core import DEVICES, MultimediaSystem
from repro.drm import LicenseServer, PlaybackDevice, RightsGrant, encrypt_title
from repro.support import BlockDevice, FatFileSystem
from repro.workloads.audio_gen import music_like


def main() -> None:
    # --- the store side: encode and encrypt two tracks -------------------
    server = LicenseServer(master_secret=b"label-master-key")
    catalogue = {}
    for title, seed in (("sunrise.sba", 11), ("moonbeam.sba", 12)):
        pcm = music_like(duration=0.4, seed=seed)
        encoded = AudioEncoder(AudioEncoderConfig(bitrate=96_000)).encode(pcm)
        key = server.register_title(title)
        catalogue[title] = encrypt_title(encoded.data, title, key)
        print(f"store: packaged {title}: {len(encoded.data)} bytes encrypted")

    # --- the player: file system with local library -----------------------
    fs = FatFileSystem(BlockDevice(num_blocks=4096))
    fs.makedirs("/library/purchased")
    for title, blob in catalogue.items():
        fs.write_file(f"/library/purchased/{title}", blob)
    # A CD burned elsewhere, with messy names (the paper's CD/MP3 case).
    foreign = {
        "My Mix (final)!!": {"01 * intro.mp3": b"\x00" * 900},
        "B-Sides/rare": {"demo.mp3": b"\x00" * 500},
    }
    imported = fs.import_foreign_tree(foreign)
    print(f"player: library tree = {fs.tree()}")
    print(f"player: imported foreign paths = {imported}")

    # --- provisioning + playback -----------------------------------------
    device_key = server.register_device("player-007")
    player = PlaybackDevice(
        device_id="player-007", license_key=device_key, analog_only=True
    )
    licence = server.request_license(
        "player-007",
        RightsGrant("sunrise.sba", plays_remaining=2, device_ids=("player-007",)),
    )
    player.install_license(licence)

    blob = fs.read_file("/library/purchased/sunrise.sba")
    for attempt in range(3):
        result = player.play("sunrise.sba", blob, now=float(attempt))
        if result.authorized:
            # The on-chip decoder consumes the internal (never-exposed)
            # stream; the pins only ever carry the analog rendering.
            decoded = AudioDecoder().decode(result.internal_stream)
            print(f"play {attempt + 1}: OK ({result.output.kind.value} out, "
                  f"{decoded.pcm.size} samples)")
        else:
            print(f"play {attempt + 1}: DENIED ({result.denial.value})")

    print("renewing licence online ...")
    player.install_license(
        server.renew_license("player-007", "sunrise.sba", extra_plays=5)
    )
    result = player.play("sunrise.sba", blob, now=10.0)
    print(f"after renewal: {'OK' if result.authorized else 'DENIED'}")

    # An unlicensed title stays locked.
    locked = player.play("moonbeam.sba", fs.read_file("/library/purchased/moonbeam.sba"), 0.0)
    print(f"unlicensed title: {locked.denial.value}")

    # --- does the SoC keep up? --------------------------------------------
    device = DEVICES["audio_player"]
    report = MultimediaSystem(
        device.name, [device.application()], device.platform()
    ).map(algorithm="greedy", iterations=4)
    print(report.summary())


if __name__ == "__main__":
    main()
