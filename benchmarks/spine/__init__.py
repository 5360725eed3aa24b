"""The measurement spine: one benchmark for the whole repo.

Four named workloads driven through the public surfaces only
(``repro.api``, ``repro.serve.client.ServeClient`` against a
``python -m repro serve`` subprocess, and each layer's public
functions).  See ``README.md`` in this directory for the glossary.
"""
