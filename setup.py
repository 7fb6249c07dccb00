from setuptools import Extension, setup

# optional: without a C compiler the package installs on the pure-Python kernels
setup(ext_modules=[Extension("wordrep._ext", ["src/wordrep/_ext.c"], optional=True)])
