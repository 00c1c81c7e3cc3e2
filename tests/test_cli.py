import pytest

from subsum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_mu(capsys):
    code, out, err = run(capsys, "eval", "mu", "10")
    assert (code, out, err) == (0, "-1\n", "")


def test_eval_tau2_star(capsys):
    code, out, _ = run(capsys, "eval", "mu@2 * tau2", "10")
    assert (code, out) == (0, "23\n")


def test_eval_with_dec(capsys):
    code, out, _ = run(capsys, "eval", "--dec", "mu@2 * tau2", "10")
    assert (code, out) == (0, "23\n7/15\n")


def test_eval_parse_error(capsys):
    code, out, err = run(capsys, "eval", "mu @", "10")
    assert code == 2
    assert out == ""
    assert "offset 4" in err


def test_eval_overflow_exit_code(capsys):
    code, out, err = run(capsys, "eval", "id3", str(1 << 62))
    assert code == 3
    assert "overflow" in err


def test_eval_sieved_table_overflow_exit_code(capsys):
    # S(1e8) ~ 2.5e31 fits 128 bits, but a prime power of (mu * id3) * one in
    # the sieved table leaves signed 64 bits: exit 3 all the same
    code, out, err = run(capsys, "eval", "(mu * id3) * one", "100000000")
    assert (code, out) == (3, "")
    assert err.startswith("overflow: ")


def test_out_of_memory_exit_code(capsys, monkeypatch):
    # No real allocation: the evaluator and parity are patched to raise.
    import subsum.cli as cli

    class OutOfMemory:
        def __init__(self, *args):
            raise MemoryError("Unable to allocate 1.29 TiB")

    def parity_out_of_memory(a, b):
        raise MemoryError("Unable to allocate 1.29 TiB")

    monkeypatch.setattr(cli, "SummatoryEvaluator", OutOfMemory)
    monkeypatch.setattr(cli, "interval_prime_parity", parity_out_of_memory)
    for argv in (("eval", "mu * id", str(10**15)), ("parity", "1", str(10**15))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert err == "error: out of memory: Unable to allocate 1.29 TiB\n"


def test_eval_deterministic(capsys):
    # 46326398 = sum of phi(n) for n <= 12345, frozen from an independent phi sieve
    first = run(capsys, "eval", "mu * id", "12345")
    second = run(capsys, "eval", "mu * id", "12345")
    assert first == second == (0, "46326398\n", "")


def test_parity_even(capsys):
    assert run(capsys, "parity", "10", "20") == (0, "even\n", "")


def test_parity_odd(capsys):
    assert run(capsys, "parity", "2", "2") == (0, "odd\n", "")
    code, out, _ = run(capsys, "parity", "100", "1000")
    assert (code, out) == (0, "odd\n")


def test_parity_report(capsys):
    # stdout pinned byte for byte, at values computed by a direct
    # sum_{d <= sqrt x} mu(d) T2(x // d^2) at each end
    assert run(capsys, "parity", "--report", "1020", "1030") == (
        0, "odd\nt2star_b=5157\nt2star_a_minus_1=5089\nj=10 count=1\n", ""
    )
    assert run(capsys, "parity", "--report", "10000000000", "10000001000") == (
        0, "even\nt2star_b=147849128291\nt2star_a_minus_1=147849112847\n", ""
    )


def test_parity_bad_interval(capsys):
    code, _, err = run(capsys, "parity", "20", "10")
    assert code == 2
    assert "a <= b" in err


def test_dec_values(capsys):
    assert run(capsys, "dec", "mu@2 * (one^4)") == (0, "5/9\n", "")
    assert run(capsys, "dec", "one * one") == (0, "1/2\n", "")
    assert run(capsys, "dec", "mu * id") == (0, "3/4\n", "")
    assert run(capsys, "dec", "one") == (0, "0/1\n", "")


def test_dec_parse_error(capsys):
    code, _, err = run(capsys, "dec", "one *")
    assert code == 2
    assert "offset" in err


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--reps", "1", "--fit", "one", "100", "1000", "10000")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "x,nanos,value"
    for line, x in zip(lines[1:4], (100, 1000, 10000)):
        sx, nanos, value = line.split(",")
        assert int(sx) == x
        assert int(nanos) >= 0
        assert int(value) == x
    assert lines[4].startswith("# fitted_exponent=")


def test_bench_single_point_warns(capsys):
    code, out, _ = run(capsys, "bench", "--reps", "1", "--fit", "one", "1000")
    assert code == 0
    assert "# fit requires >=2 points" in out


def test_bench_non_monotone(capsys):
    code, _, err = run(capsys, "bench", "one", "1000", "100")
    assert code == 2
    assert "strictly increasing" in err


def test_bench_rejects_zero_reps(capsys):
    for reps in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--reps", reps, "one", "100"])
        assert exc.value.code == 2
        assert "--reps" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["eval"])  # missing arguments
    assert exc.value.code == 2


def test_eval_accepts_input_cap(capsys):
    cap = str((1 << 63) - 1)
    assert run(capsys, "eval", "one", cap) == (0, cap + "\n", "")


def test_eval_rejects_past_input_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "one", str(1 << 63)])
    assert exc.value.code == 2
    assert str((1 << 63) - 1) in capsys.readouterr().err
