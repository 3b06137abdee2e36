"""Seeded input generator for the benchmark.

Writes every file the benchmark's commands read, as a pure function of the
seed: the same seed gives byte-identical files.  It uses only numpy and
struct, never chaoscope, so the program under test receives inputs it did
not produce.

    python3 bench/gen_inputs.py --seed 7 --out DIR

Files:
  photo128.pgm  128x128 natural-like image (smooth regions, edges, noise)
  photo64.pgm   64x64 image of the same kind, for the small tour
  code512.fic   valid 512x512 FIC1 code (range size 8) of seeded transforms
  code64.fic    valid 64x64 FIC1 code (range size 8)
  payload.bin   1 MiB of seeded bytes
  secret.bin    512 seeded bytes
"""

from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

import numpy as np

FIC_HEADER = struct.Struct("<4sHHBB")
FIC_RECORD = struct.Struct("<HHBbh")


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def natural_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth shading, flat shapes with hard edges, and a noisy patch.

    A pruned PIFS search gains differently on each kind of content, so the
    encode workload needs all three.
    """
    y, x = np.mgrid[0:size, 0:size] / size
    gx, gy = rng.uniform(-60.0, 60.0, 2)
    px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
    img = (
        128.0
        + gx * (x - 0.5)
        + gy * (y - 0.5)
        + 25.0 * np.sin(2.0 * np.pi * 1.5 * x + px) * np.cos(2.0 * np.pi * y + py)
    )
    for _ in range(3):
        x0, x1 = np.sort(rng.uniform(0.0, 1.0, 2))
        y0, y1 = np.sort(rng.uniform(0.0, 1.0, 2))
        img[(x >= x0) & (x < x1) & (y >= y0) & (y < y1)] = rng.uniform(30.0, 225.0)
    for _ in range(2):
        cx, cy = rng.uniform(0.2, 0.8, 2)
        r = rng.uniform(0.08, 0.2)
        img[(x - cx) ** 2 + (y - cy) ** 2 < r * r] = rng.uniform(30.0, 225.0)
    img += rng.normal(0.0, 2.0, img.shape)
    nx0, ny0 = rng.uniform(0.0, 0.6, 2)
    patch = (x >= nx0) & (x < nx0 + 0.35) & (y >= ny0) & (y < ny0 + 0.35)
    img[patch] += rng.normal(0.0, 12.0, int(patch.sum()))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def fic_code(rng: np.random.Generator, size: int, range_size: int = 8) -> bytes:
    """A valid FIC1 container: one seeded contractive transform per block.

    Domain origins are multiples of the range size, so every domain block
    (twice the range size) lies inside the image; |s_q| <= 50 keeps every
    map contractive, and the offset aims each block's fixed point at a
    seeded gray level.
    """
    blocks = (size // range_size) ** 2
    last = size - 2 * range_size
    dx = rng.integers(0, last // range_size + 1, blocks) * range_size
    dy = rng.integers(0, last // range_size + 1, blocks) * range_size
    iso = rng.integers(0, 8, blocks)
    s_q = rng.integers(-50, 51, blocks)
    level = rng.uniform(40.0, 215.0, blocks)
    o_q = np.clip(np.rint((1.0 - s_q / 63.0) * level), -255, 255).astype(int)
    out = [FIC_HEADER.pack(b"FIC1", size, size, range_size, 0)]
    for rec in zip(dx, dy, iso, s_q, o_q):
        out.append(FIC_RECORD.pack(*(int(v) for v in rec)))
    return b"".join(out)


def generate(seed: int, out_dir: Path) -> dict:
    """Write every input file for `seed` into out_dir; return name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    # one independent stream per file, so resizing one input leaves the
    # others' bytes unchanged
    streams = np.random.SeedSequence(seed).spawn(6)
    rngs = [np.random.default_rng(s) for s in streams]
    files = {
        "photo128.pgm": pgm_bytes(natural_image(rngs[0], 128)),
        "photo64.pgm": pgm_bytes(natural_image(rngs[1], 64)),
        "code512.fic": fic_code(rngs[2], 512),
        "code64.fic": fic_code(rngs[3], 64),
        "payload.bin": rngs[4].integers(0, 256, 1 << 20, dtype=np.uint8).tobytes(),
        "secret.bin": rngs[5].integers(0, 256, 512, dtype=np.uint8).tobytes(),
    }
    paths = {}
    for name, data in files.items():
        path = out_dir / name
        path.write_bytes(data)
        paths[name] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for name, path in generate(args.seed, Path(args.out)).items():
        print(f"{name} {path.stat().st_size}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
