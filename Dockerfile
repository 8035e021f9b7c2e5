# Query-serving container: one process, one volume.
#
# The image holds the code only; indexes live on the /data volume so a
# rebuilt image never invalidates them.  Build an index with a one-off
# container (see docker-compose.yml) or on the host:
#
#   docker build -t repro-serve .
#   docker run --rm -v ./indexes:/data repro-serve \
#       python -m repro index build /data/index --n 20000 --d 64 --selectivity 64
#   docker run --rm -p 8787:8787 -v ./indexes:/data repro-serve

FROM python:3.11-slim

# gcc enables the optional native round-toward-zero kernel at first
# import; the NumPy fallback is bit-identical, so this is a fast path,
# not a requirement.
RUN apt-get update \
    && apt-get install -y --no-install-recommends gcc libc6-dev \
    && rm -rf /var/lib/apt/lists/*

RUN python -m pip install --no-cache-dir numpy

WORKDIR /app
COPY src/ src/
ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1

VOLUME /data
EXPOSE 8787

# The server's own liveness route; the JSON body carries the registered
# index names, but liveness only needs the status code.
HEALTHCHECK --interval=10s --timeout=3s --start-period=20s --retries=3 \
    CMD ["python", "-c", "import urllib.request, sys; sys.exit(0 if urllib.request.urlopen('http://127.0.0.1:8787/healthz', timeout=2).status == 200 else 1)"]

CMD ["python", "-m", "repro", "serve", \
     "--index", "/data/index", \
     "--host", "0.0.0.0", "--port", "8787"]
