"""One benchmark command: import ``tfl.cli`` and call ``main(argv)``.

    python3 perfbench/child.py INFO_JSON TRACE -- [tfl arguments...]

With no tfl arguments the child only imports the package.  It always
writes INFO_JSON with the import-finished clock reading, the fields the
import hook rewrote and the number of windows ``network.predict_batch``
forecast (a count, no clock).  With TRACE=1 it also wraps every public
``tfl`` function and adds the aggregated spans.  The exit code is
``main``'s.
"""

import functools
import json
import sys
import time

import hook
import spans


def main() -> int:
    info_path, traced = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    cli, rewrites = hook.tolerant_import("tfl.cli")
    info = {"imported_at": time.monotonic(), "rewrites": rewrites, "forecast_windows": 0}
    network = sys.modules["tfl.network"]
    predict = network.predict_batch

    @functools.wraps(predict)
    def counted(model, inputs, *args, **kwargs):
        info["forecast_windows"] += len(inputs)
        return predict(model, inputs, *args, **kwargs)

    spans.rebind("tfl", {predict: counted})
    recorder = spans.Recorder() if traced else None
    run = cli.main
    if recorder is not None:
        spans.install(recorder)
        run = recorder.wrap(cli.main, "cli.main")
    code = 0
    try:
        if argv:
            code = run(argv)
    finally:
        if recorder is not None:
            info["spans"] = recorder.stats
        with open(info_path, "w") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
