"""Cross-version pin of the CSV a small sweep writes.

The rerun test in ``test_sim`` compares two runs of the same code; this one
compares against text frozen from an earlier version, so any change to the
seeded streams, the precoders, the estimators, detection or the CSV format
shows up here. It covers every precoder but the exhaustive oracle with every
estimator on all five constellations, so the QPSK, PSK and QAM tables and
their bit labels are pinned too. A second pin runs the linear precoders at
the paper's size (B=128, U=16, K=10) with pilot estimation and 64-QAM, the
``linear-pilot`` benchmark point, where the toy size cannot reach. A third
runs SQUID beside ZFQ at that size with blind estimation and 16-QAM, the
``paper-squid`` benchmark point. Regenerate them only for an intended change
of results, and say why in CHANGES.md.
"""

from onebit_mimo import SweepConfig, records_to_csv, sweep
from onebit_mimo.sim import CSV_HEADER

PINNED_ROWS = """\
0,zfq,16qam,genie,2,48,14,0.291666666667,0
0,mrtq,16qam,genie,2,48,14,0.291666666667,0
0,squid,16qam,genie,2,48,14,0.291666666667,0
0,sdr,16qam,genie,2,48,15,0.3125,0
12,zfq,16qam,genie,2,48,11,0.229166666667,0
12,mrtq,16qam,genie,2,48,15,0.3125,0
12,squid,16qam,genie,2,48,7,0.145833333333,0
12,sdr,16qam,genie,2,48,13,0.270833333333,0
0,zfq,64qam,genie,2,72,27,0.375,0
0,mrtq,64qam,genie,2,72,35,0.486111111111,0
0,squid,64qam,genie,2,72,29,0.402777777778,0
0,sdr,64qam,genie,2,72,30,0.416666666667,0
12,zfq,64qam,genie,2,72,21,0.291666666667,0
12,mrtq,64qam,genie,2,72,28,0.388888888889,0
12,squid,64qam,genie,2,72,27,0.375,0
12,sdr,64qam,genie,2,72,29,0.402777777778,0
0,zfq,qpsk,genie,2,24,9,0.375,0
0,mrtq,qpsk,genie,2,24,9,0.375,0
0,squid,qpsk,genie,2,24,6,0.25,0
0,sdr,qpsk,genie,2,24,6,0.25,0
12,zfq,qpsk,genie,2,24,2,0.0833333333333,0
12,mrtq,qpsk,genie,2,24,2,0.0833333333333,0
12,squid,qpsk,genie,2,24,1,0.0416666666667,0
12,sdr,qpsk,genie,2,24,1,0.0416666666667,0
0,zfq,8psk,genie,2,36,11,0.305555555556,0
0,mrtq,8psk,genie,2,36,9,0.25,0
0,squid,8psk,genie,2,36,9,0.25,0
0,sdr,8psk,genie,2,36,10,0.277777777778,0
12,zfq,8psk,genie,2,36,6,0.166666666667,0
12,mrtq,8psk,genie,2,36,7,0.194444444444,0
12,squid,8psk,genie,2,36,5,0.138888888889,0
12,sdr,8psk,genie,2,36,5,0.138888888889,0
0,zfq,16psk,genie,2,48,13,0.270833333333,0
0,mrtq,16psk,genie,2,48,15,0.3125,0
0,squid,16psk,genie,2,48,17,0.354166666667,0
0,sdr,16psk,genie,2,48,19,0.395833333333,0
12,zfq,16psk,genie,2,48,8,0.166666666667,0
12,mrtq,16psk,genie,2,48,14,0.291666666667,0
12,squid,16psk,genie,2,48,11,0.229166666667,0
12,sdr,16psk,genie,2,48,11,0.229166666667,0
0,zfq,16qam,pilot,2,32,4,0.125,1
0,mrtq,16qam,pilot,2,32,8,0.25,2
0,squid,16qam,pilot,2,32,9,0.28125,1
0,sdr,16qam,pilot,2,32,6,0.1875,1
12,zfq,16qam,pilot,2,32,8,0.25,0
12,mrtq,16qam,pilot,2,32,9,0.28125,0
12,squid,16qam,pilot,2,32,5,0.15625,0
12,sdr,16qam,pilot,2,32,8,0.25,0
0,zfq,64qam,pilot,2,48,17,0.354166666667,1
0,mrtq,64qam,pilot,2,48,19,0.395833333333,2
0,squid,64qam,pilot,2,48,18,0.375,1
0,sdr,64qam,pilot,2,48,18,0.375,1
12,zfq,64qam,pilot,2,48,18,0.375,0
12,mrtq,64qam,pilot,2,48,18,0.375,0
12,squid,64qam,pilot,2,48,14,0.291666666667,0
12,sdr,64qam,pilot,2,48,19,0.395833333333,0
0,zfq,qpsk,pilot,2,16,6,0.375,1
0,mrtq,qpsk,pilot,2,16,3,0.1875,2
0,squid,qpsk,pilot,2,16,3,0.1875,1
0,sdr,qpsk,pilot,2,16,3,0.1875,1
12,zfq,qpsk,pilot,2,16,0,0,0
12,mrtq,qpsk,pilot,2,16,0,0,0
12,squid,qpsk,pilot,2,16,0,0,0
12,sdr,qpsk,pilot,2,16,0,0,0
0,zfq,8psk,pilot,2,24,5,0.208333333333,1
0,mrtq,8psk,pilot,2,24,7,0.291666666667,2
0,squid,8psk,pilot,2,24,6,0.25,1
0,sdr,8psk,pilot,2,24,6,0.25,1
12,zfq,8psk,pilot,2,24,3,0.125,0
12,mrtq,8psk,pilot,2,24,4,0.166666666667,0
12,squid,8psk,pilot,2,24,3,0.125,0
12,sdr,8psk,pilot,2,24,2,0.0833333333333,0
0,zfq,16psk,pilot,2,32,9,0.28125,1
0,mrtq,16psk,pilot,2,32,6,0.1875,2
0,squid,16psk,pilot,2,32,5,0.15625,1
0,sdr,16psk,pilot,2,32,5,0.15625,1
12,zfq,16psk,pilot,2,32,8,0.25,0
12,mrtq,16psk,pilot,2,32,7,0.21875,0
12,squid,16psk,pilot,2,32,1,0.03125,0
12,sdr,16psk,pilot,2,32,3,0.09375,0
0,zfq,16qam,blind,2,48,15,0.3125,0
0,mrtq,16qam,blind,2,48,16,0.333333333333,0
0,squid,16qam,blind,2,48,16,0.333333333333,1
0,sdr,16qam,blind,2,48,14,0.291666666667,1
12,zfq,16qam,blind,2,48,12,0.25,0
12,mrtq,16qam,blind,2,48,18,0.375,0
12,squid,16qam,blind,2,48,9,0.1875,0
12,sdr,16qam,blind,2,48,12,0.25,0
0,zfq,64qam,blind,2,72,28,0.388888888889,0
0,mrtq,64qam,blind,2,72,30,0.416666666667,0
0,squid,64qam,blind,2,72,29,0.402777777778,1
0,sdr,64qam,blind,2,72,28,0.388888888889,1
12,zfq,64qam,blind,2,72,26,0.361111111111,0
12,mrtq,64qam,blind,2,72,32,0.444444444444,0
12,squid,64qam,blind,2,72,23,0.319444444444,0
12,sdr,64qam,blind,2,72,26,0.361111111111,0
0,zfq,qpsk,blind,2,24,9,0.375,0
0,mrtq,qpsk,blind,2,24,9,0.375,1
0,squid,qpsk,blind,2,24,6,0.25,1
0,sdr,qpsk,blind,2,24,6,0.25,1
12,zfq,qpsk,blind,2,24,2,0.0833333333333,0
12,mrtq,qpsk,blind,2,24,2,0.0833333333333,0
12,squid,qpsk,blind,2,24,1,0.0416666666667,0
12,sdr,qpsk,blind,2,24,1,0.0416666666667,0
0,zfq,8psk,blind,2,36,11,0.305555555556,0
0,mrtq,8psk,blind,2,36,9,0.25,2
0,squid,8psk,blind,2,36,9,0.25,2
0,sdr,8psk,blind,2,36,10,0.277777777778,2
12,zfq,8psk,blind,2,36,6,0.166666666667,0
12,mrtq,8psk,blind,2,36,7,0.194444444444,0
12,squid,8psk,blind,2,36,5,0.138888888889,0
12,sdr,8psk,blind,2,36,5,0.138888888889,0
0,zfq,16psk,blind,2,48,13,0.270833333333,0
0,mrtq,16psk,blind,2,48,15,0.3125,1
0,squid,16psk,blind,2,48,17,0.354166666667,2
0,sdr,16psk,blind,2,48,19,0.395833333333,1
12,zfq,16psk,blind,2,48,8,0.166666666667,0
12,mrtq,16psk,blind,2,48,14,0.291666666667,0
12,squid,16psk,blind,2,48,11,0.229166666667,0
12,sdr,16psk,blind,2,48,11,0.229166666667,0
"""


def test_sweep_csv_matches_pinned_text():
    produced = []
    for estimator in ("genie", "pilot", "blind"):
        for constellation in ("16qam", "64qam", "qpsk", "8psk", "16psk"):
            records = sweep(SweepConfig(
                num_bs_antennas=4, num_ues=2, num_slots=3, snr_db=(0.0, 12.0),
                constellation=constellation,
                precoders=("zfq", "mrtq", "squid", "sdr"),
                estimator=estimator, trials=2, seed=20))
            text = records_to_csv(records)
            assert text.startswith(CSV_HEADER + "\n")
            produced.append(text[len(CSV_HEADER) + 1:])
    assert "".join(produced) == PINNED_ROWS


PAPER_SIZE_ROWS = """\
-4,zfq,64qam,pilot,4,3456,1179,0.341145833333,6
-4,mrtq,64qam,pilot,4,3456,1223,0.353877314815,5
4,zfq,64qam,pilot,4,3456,808,0.233796296296,0
4,mrtq,64qam,pilot,4,3456,936,0.270833333333,1
12,zfq,64qam,pilot,4,3456,581,0.168113425926,0
12,mrtq,64qam,pilot,4,3456,808,0.233796296296,0
"""


def test_paper_size_linear_sweep_matches_pinned_text():
    records = sweep(SweepConfig(
        num_bs_antennas=128, num_ues=16, num_slots=10, snr_db=(-4.0, 4.0, 12.0),
        constellation="64qam", precoders=("zfq", "mrtq"), estimator="pilot",
        trials=4, seed=20))
    assert records_to_csv(records) == CSV_HEADER + "\n" + PAPER_SIZE_ROWS


PAPER_SIZE_SQUID_ROWS = """\
0,zfq,16qam,blind,2,1280,223,0.17421875,0
0,squid,16qam,blind,2,1280,177,0.13828125,0
8,zfq,16qam,blind,2,1280,94,0.0734375,0
8,squid,16qam,blind,2,1280,18,0.0140625,0
16,zfq,16qam,blind,2,1280,89,0.06953125,0
16,squid,16qam,blind,2,1280,0,0,0
"""


def test_paper_size_squid_sweep_matches_pinned_text():
    records = sweep(SweepConfig(
        num_bs_antennas=128, num_ues=16, num_slots=10, snr_db=(0.0, 8.0, 16.0),
        constellation="16qam", precoders=("zfq", "squid"), estimator="blind",
        trials=2, seed=20))
    assert records_to_csv(records) == CSV_HEADER + "\n" + PAPER_SIZE_SQUID_ROWS
