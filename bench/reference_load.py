"""A fixed load that is not chaoscope code, to time the machine itself.

    python3 bench/reference_load.py

It does a little of each kind of work chaoscope's commands do: start the
interpreter and import numpy, step a flow in pure Python, format floats
as CSV text, and iterate an escape-time grid in numpy.  The runner times
it as a child beside the workload's commands; since neither the program
nor its inputs reach it, any change in its time is the machine's.
Never edit it: its time is the yardstick every result is scaled by.
"""

import io

import numpy as np


def lorenz_rk4(steps: int, h: float = 0.005):
    x, y, z = 1.0, 1.0, 20.0
    out = []

    def f(x, y, z):
        return 10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z

    for _ in range(steps):
        a = f(x, y, z)
        b = f(x + 0.5 * h * a[0], y + 0.5 * h * a[1], z + 0.5 * h * a[2])
        c = f(x + 0.5 * h * b[0], y + 0.5 * h * b[1], z + 0.5 * h * b[2])
        d = f(x + h * c[0], y + h * c[1], z + h * c[2])
        x += h / 6.0 * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0])
        y += h / 6.0 * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1])
        z += h / 6.0 * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2])
        out.append((x, y, z))
    return out


def csv_text(rows) -> str:
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(repr(v) for v in row))
        buf.write("\n")
    return buf.getvalue()


def escape_grid(n: int, nmax: int) -> int:
    re, im = np.meshgrid(np.linspace(-2.0, 0.5, n), np.linspace(-1.25, 1.25, n))
    c = re + 1j * im
    z = np.zeros_like(c)
    counts = np.zeros(c.shape, np.int32)
    for _ in range(nmax):
        alive = np.abs(z) <= 2.0
        z[alive] = z[alive] * z[alive] + c[alive]
        counts += alive
    return int(counts.sum())


def main() -> None:
    rows = lorenz_rk4(6000)
    text = csv_text(rows)
    useful = escape_grid(200, 60)
    print(len(text), useful)


if __name__ == "__main__":
    main()
