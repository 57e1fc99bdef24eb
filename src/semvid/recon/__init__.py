"""Dynamic 3D Gaussian scene reconstruction: the packed scene model (one
array per Gaussian attribute, shared motion bases, pinhole cameras), the
software rasterizer, correspondence tracking, and the fitting loop."""

from .fit import FitDivergenceError, FitResult, Tracks2D, fit_scene
from .render import RenderResult, render, track_correspondence
from .scene import Camera, GaussianScene, load_scene, save_scene

__all__ = [
    "FitDivergenceError", "FitResult", "Tracks2D", "fit_scene",
    "RenderResult", "render", "track_correspondence",
    "Camera", "GaussianScene", "load_scene", "save_scene",
]
