"""Run ``amnm.cli.main`` as one benchmark op, timing the reference kernel
in it.

    python perfbench/cli_shim.py --report FILE --op N [--trace] -- <amnm arguments>

Behaves as ``python -m amnm.cli <amnm arguments>`` and exits with its code.
FILE receives the start and end of every reference-kernel call
(``calibrate.py``): before and after the command, and every
``Sampler.INTERVAL_S`` during it unless traced; their total time, to be
taken off the op's latency; the time taken to import the program; and, with
``--trace``, the spans recorded around calls into each ``amnm`` module.
"""

import sys
import time

if __name__ == "__main__":
    split = sys.argv.index("--")
    options, argv = sys.argv[1:split], sys.argv[split + 1:]
    report = options[options.index("--report") + 1]
    op_id = int(options[options.index("--op") + 1])
    traced = "--trace" in options

    start = time.perf_counter()
    import amnm.cli

    import_s = time.perf_counter() - start

    from calibrate import Sampler
    from spans import Tracer, install

    sampler = Sampler()
    warm_s = sampler.warm_up()
    sampler.sample()
    tracer = Tracer()
    tracer.op = op_id
    code = 1
    try:
        if traced:
            # spans must not hold kernel calls
            install(tracer)
            code = amnm.cli.main(argv)
        else:
            with sampler:
                code = amnm.cli.main(argv)
    finally:
        sampler.sample()
        tracer.dump(report, import_s=import_s, kernel_calls=sampler.calls,
                    kernel_total_s=warm_s + sum(end - start for start, end in sampler.calls))
    sys.exit(code)
