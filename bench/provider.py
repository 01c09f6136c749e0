"""Provider process for the TCP workloads.

    python3 provider.py '<model config as JSON>' <weight seed> [<spans file>]

Builds `ProviderState` and `ProviderServer` through remo's public API,
binds 127.0.0.1 port 0 and prints one flushed JSON line: the port and
`setup_s`, the time from finishing imports to listening.  It serves
until its stdin closes.  Given a spans file, it traces its own layers
(codec, handle, GEMM) and writes the spans there before it exits.
"""

import json
import sys
import time

import remo
from spans import Tracer, install

IDLE_TIMEOUT_S = 60.0


def main(argv: list[str]) -> int:
    imported = time.monotonic()
    model, weight_seed = json.loads(argv[0]), int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        install(tracer)
    weights = remo.init_weights(remo.ModelConfig(**model), weight_seed)
    state = remo.ProviderState(weights.provider_view(), weights.config.params)
    server = remo.ProviderServer(state, host="127.0.0.1", port=0, idle_timeout=IDLE_TIMEOUT_S)
    listening = time.monotonic()
    print(json.dumps({"port": server.address[1], "setup_s": listening - imported}), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        if tracer is not None:
            tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
