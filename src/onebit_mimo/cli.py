"""Command line front end for BER sweeps.

Every setting is one option of :func:`build_parser`, and the option's
``dest`` is the setting's key in a flat ``key = value`` configuration file
(``--config``). The file's values become the parser's defaults and the
command line is parsed again, so file values are type- and range-checked
like flags and flags override the file, which overrides the defaults.

Config file grammar: one ``key = value`` pair per line; blank lines and text
after ``#`` are ignored. Keys are the long flag names with underscores
(``bs_antennas``, ``ues``, ``slots``, ``snr_db``, ``constellation``,
``precoder``, ``estimator``, ``trials``, ``seed``, ``out``); an unknown key
is an error, and so is a key set twice. List values (``snr_db``,
``precoder``) are comma separated.
The solvers' budgets are fixed in the library and are not settings, and
every point runs all its ``trials``, so they alone set its precision.

Exit status is 2 for an invalid setting (no trial runs), 1 when any trial
recorded a hard failure, 130 when the sweep is interrupted (Ctrl-C; the
CSV then holds the header and every finished point, and a line on stderr
says how many of the SNR points that is), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .constellations import CONSTELLATION_IDS
from .sim import ESTIMATOR_IDS, PRECODER_IDS, SweepConfig, sweep


def float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def name(text: str) -> str:
    return text.strip().lower()  # the library takes only the exact id


def name_list(text: str) -> tuple:
    return tuple(name(v) for v in text.split(",") if v.strip())


def _at_least(low: int):
    """An int option type that rejects values below ``low``."""
    def convert(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    convert.__name__ = "int"  # argparse and the config reader name the type
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit-mimo",
        usage="%(prog)s [--config FILE] [--KEY VALUE ...]",
        description="Monte-Carlo BER sweeps for 1-bit massive MU-MIMO downlink precoding",
    )
    add = parser.add_argument
    add("--config", type=str, default=None,
        help="key = value config file; CLI flags override it")
    add("--bs-antennas", dest="bs_antennas", type=_at_least(1), default=128)
    add("--ues", type=_at_least(1), default=16)
    add("--slots", type=_at_least(1), default=10)
    add("--snr-db", dest="snr_db", type=float_list,
        default=(-10.0, -6.0, -2.0, 2.0, 6.0, 10.0),
        help="comma separated SNR list in dB")
    add("--constellation", type=name, default="qpsk",
        help=f"one of {', '.join(CONSTELLATION_IDS)}")
    add("--precoder", type=name_list, default=("squid",),
        help=f"comma separated subset of {', '.join(PRECODER_IDS)}")
    add("--estimator", type=name, default="blind",
        help=f"one of {', '.join(ESTIMATOR_IDS)}")
    add("--trials", type=_at_least(1), default=10, help="Monte-Carlo trials per point")
    add("--seed", type=_at_least(0), default=0, help="master seed")
    add("--out", type=str, default="ber_results.csv", help="output CSV file, in an existing directory")
    return parser


def parse_config_file(path, parser: argparse.ArgumentParser) -> dict:
    """Parse the flat key = value grammar into a string-valued dict.

    Keys are checked against the option destinations of ``parser`` (built by
    :func:`build_parser`) and each value against its option's type, so an
    error names the file, the line and the key.
    """
    types = {a.dest: a.type for a in parser._actions
             if a.dest not in ("help", "config")}
    values, set_on = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on "
                             f"line {set_on[key]}")
        try:
            types[key](value)
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"{path}:{lineno}: {key}: {err}") from None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key}: invalid "
                             f"{types[key].__name__} value: {value!r}") from None
        values[key], set_on[key] = value, lineno
    return values


def parse_settings(parser: argparse.ArgumentParser, argv=None) -> argparse.Namespace:
    """Parse ``argv``; the values of a ``--config`` file replace the defaults."""
    args = parser.parse_args(argv)
    if args.config is not None:
        parser.set_defaults(**parse_config_file(args.config, parser))
        args = parser.parse_args(argv)
    return args


def sweep_config(args: argparse.Namespace) -> SweepConfig:
    """The sweep that parsed settings describe."""
    return SweepConfig(
        num_bs_antennas=args.bs_antennas,
        num_ues=args.ues,
        num_slots=args.slots,
        snr_db=args.snr_db,
        constellation=args.constellation,
        precoders=args.precoder,
        estimator=args.estimator,
        trials=args.trials,
        seed=args.seed,
        out=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = sweep_config(parse_settings(parser, argv))
    except (OSError, ValueError) as err:
        parser.error(str(err))
    try:
        records = sweep(cfg)
    except KeyboardInterrupt:
        # the sweep writes each point's rows at once, so the rows count whole points
        rows = len(Path(cfg.out).read_text(encoding="ascii").splitlines()) - 1
        print(f"interrupted; {cfg.out} holds the header and every finished point: "
              f"{rows // len(cfg.precoders)} of {len(cfg.snr_db)} SNR points",
              file=sys.stderr)
        return 130
    hard_failures = 0
    for rec in records:
        print(f"snr={rec.snr_db:g} dB  precoder={rec.precoder}  "
              f"constellation={rec.constellation}  estimator={rec.estimator}  "
              f"ber={rec.ber:.3e}  bits={rec.bits_total}  "
              f"clamps={rec.clamp_flags}  nonconverged={rec.nonconverged}  "
              f"failures={rec.failures}")
        hard_failures += rec.failures
    print(f"wrote {cfg.out}")
    if hard_failures:
        print(f"{hard_failures} trial(s) failed", file=sys.stderr)
        return 1
    return 0


def cli_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
