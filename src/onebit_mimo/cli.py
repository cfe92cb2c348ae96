"""Command line front end for BER sweeps.

Every setting is one option of :func:`build_parser`, and the option's
``dest`` is the setting's key in a flat ``key = value`` configuration file
(``--config``). The file's values become the parser's defaults and the
command line is parsed again, so file values are type- and range-checked
like flags and flags override the file, which overrides the defaults.

Config file grammar: one ``key = value`` pair per line; blank lines and text
after ``#`` are ignored. Keys are the long flag names with underscores
(``bs_antennas``, ``ues``, ``slots``, ``snr_db``, ``constellation``,
``precoder``, ``estimator``, ``trials``, ``seed``, ``out``,
``stop_after_errors``) plus the solver options ``squid.max_iters``,
``squid.rel_tol``, ``sdr.tol`` and ``sdr.max_iters``, whose flags are
spelled as their keys (``--squid.max_iters 500``). List values (``snr_db``,
``precoder``) are comma separated.

Exit status is 2 for an invalid setting (no trial runs), 1 when any trial
recorded a hard failure, 130 when the sweep is interrupted (Ctrl-C; the
CSV then holds the header and every finished point), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .constellations import CONSTELLATION_IDS
from .sdr import SdrOptions
from .sim import ESTIMATOR_IDS, PRECODER_IDS, SweepConfig, sweep
from .squid import SquidOptions


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


def _positive(text: str) -> float:
    """A float option type that accepts only 0 < value < inf."""
    if not (value := float(text)) > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    if not value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


_positive.__name__ = "float"


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
    add("--stop-after-errors", dest="stop_after_errors", type=_at_least(0), default=0,
        help="stop a point early after this many bit errors (0 disables)")
    add("--squid.max_iters", type=_at_least(1), default=SquidOptions.max_iters,
        help="SQUID iteration budget")
    add("--squid.rel_tol", type=_positive, default=SquidOptions.rel_tol,
        help="SQUID relative stopping tolerance")
    add("--sdr.tol", type=_positive, default=SdrOptions.tol,
        help="ADMM residual tolerance")
    add("--sdr.max_iters", type=_at_least(1), default=SdrOptions.max_iters,
        help="ADMM iteration budget per slot")
    return parser


def parse_config_file(path, parser: argparse.ArgumentParser) -> dict:
    """Parse the flat key = value grammar into a string-valued dict.

    Keys are checked against the option destinations of ``parser`` (built by
    :func:`build_parser`) and each value against its option's type, so an
    error names the file, the line and the key.
    """
    types = {a.dest: a.type for a in parser._actions
             if a.dest not in ("help", "config")}
    values = {}
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
        try:
            types[key](value)
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"{path}:{lineno}: {key}: {err}") from None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key}: invalid "
                             f"{types[key].__name__} value: {value!r}") from None
        values[key] = value
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
    opts = vars(args)
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
        stop_after_errors=args.stop_after_errors,
        squid=SquidOptions(max_iters=opts["squid.max_iters"],
                           rel_tol=opts["squid.rel_tol"]),
        sdr=SdrOptions(tol=opts["sdr.tol"], max_iters=opts["sdr.max_iters"]),
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
        print(f"interrupted; {cfg.out} holds the header and every finished point",
              file=sys.stderr)
        return 130
    hard_failures = 0
    for rec in records:
        print(f"snr={rec.snr_db:g} dB  precoder={rec.precoder}  "
              f"constellation={rec.constellation}  estimator={rec.estimator}  "
              f"ber={rec.ber:.3e}  bits={rec.bits_total}  "
              f"clamps={rec.clamp_flags}  flags={rec.precoder_flags}  "
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
